"""The product construction of a type's generator matrix, step by step: the oracle of its closed form.

Starting from the single column (1), each new row of order p^sigma
replicates the current block p^sigma times and appends the coordinate run
(0, p^(s - sigma), 2 p^(s - sigma), ...) beside it.  Everything the
library derives from that schedule is derived here again from the
iterated matrix and the row orders, one row or one power at a time.
"""

import numpy as np


def generator(sig):
    """The generator matrix, built one row at a time by the product construction, in the ring's dtype."""
    p, s = sig.p, sig.s
    mat = np.ones((1, 1), dtype=np.int64)
    for i in range(1, s + 1):
        reps, step = p ** (s - i + 1), p ** (i - 1)
        for _ in range(sig.ts[i - 1] - (1 if i == 1 else 0)):
            width = mat.shape[1]
            fresh = np.repeat(np.arange(reps, dtype=np.int64) * step, width)[None, :]
            mat = np.vstack([np.tile(mat, (1, reps)), fresh]) % sig.params.modulus
    return mat.astype(sig.params.dtype())


def row_orders(sig):
    """The additive order of each generator row: p^s for the t_1 rows of slot 1, p^(s-i+1) for slot i."""
    p, s = sig.p, sig.s
    out = []
    for i in range(1, s + 1):
        out.extend([p ** (s - i + 1)] * (sig.ts[i - 1] - (1 if i == 1 else 0)))
    return (p**s, *out)


def basis(sig):
    """The p-basis: p^q w_i for each generator row w_i and each power p^q below its order, as int64 rows."""
    out = []
    for row, order in zip(generator(sig).astype(np.int64), row_orders(sig)):
        q = 1
        while q < order:
            out.append(row * q % sig.params.modulus)
            q *= sig.p
    return np.stack(out)


def top_rows(sig):
    """The mask of the basis rows p^(sigma_i - 1) w_i, sigma_i recovered from each row's order."""
    sigmas = []
    for order in row_orders(sig):
        sigma = 1
        while sig.p**sigma < order:
            sigma += 1
        sigmas.append(sigma)
    top = np.zeros(sig.t + 1, dtype=bool)
    top[np.cumsum(sigmas) - 1] = True
    return top


def decode_plan(sig):
    """(pinned coordinates, divisors, weights): each row's width is the product of the orders before it."""
    orders = np.array(row_orders(sig), dtype=np.int64)
    widths = np.cumprod(orders[1:]) // orders[1:]
    modulus = sig.params.modulus
    return np.r_[0, widths], modulus // orders, np.r_[1, modulus * widths]
