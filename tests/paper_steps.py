"""The paper's maps, kept as the oracle of the library's Gray map and chain witness.

* ``gamma(p, s)`` acts on the p^(s-1) coordinates of one phi-block;
* ``rho(p, n)`` interleaves p consecutive runs of length n.

Both are returned as explicit ``Permutation`` objects.  Throughout, "pi
moves coordinate k to pi(k)" means ``result[pi(k)] = input[k]``; one-line
images are 1-based in ``one_based``, ``from_one_based`` and
``cycle_string`` and 0-based internally.  ``gray_inverse`` decodes one
Gray word, and raises ``NotAGrayImage`` where a block has no preimage.

The unmapping ``tau`` recovers, for u in Z_{p^s}, the unique vector over
Z_{p^(s-1)} of length p whose Gray image is gamma^(-1)(phi(u)); its
interleaved variant ``tau_tilde`` additionally undoes rho.  The rows
``tau`` returns are read-only.

The paper carries the Gray image of a code over Z_{p^(s+1)} one ring
level down by (gamma_ext . rho_lift)^(-1): gamma acting inside each
phi-block, after rho interleaving the blocks; tau_tilde carries the code
itself down.  The witness between two positions of a chain composes those
steps.  The library builds the same witness as one index shuffle
(``gray.Permutation._shuffle``); the tests check that the two agree on
every chain pair.
"""

from functools import lru_cache, reduce

import numpy as np

from ghcodes.errors import InputError
from ghcodes.gray import Permutation, _block_residues, _residue, phi_table
from ghcodes.ring import RingParams


class NotAGrayImage(InputError):
    """A word is not in the image of the Gray map."""


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def apply_inverse(perm: Permutation, x: np.ndarray) -> np.ndarray:
    return np.take(perm._words(x), perm.image, axis=-1)


def inverse(perm: Permutation) -> Permutation:
    return Permutation(perm.source)


def one_based(perm: Permutation) -> tuple[int, ...]:
    """One-line image with 1-based coordinates, for display."""
    return tuple((perm.image + 1).tolist())


def from_one_based(image: "list[int] | tuple[int, ...]") -> Permutation:
    return Permutation(np.asarray(image, dtype=np.int64) - 1)


def cycles(perm: Permutation) -> list[tuple[int, ...]]:
    """Nontrivial cycles (1-based), each starting at its smallest point."""
    seen = np.zeros(perm.size, dtype=bool)
    out = []
    for start in range(perm.size):
        if seen[start]:
            continue
        cyc = []
        k = start
        while not seen[k]:
            seen[k] = True
            cyc.append(k + 1)
            k = int(perm.image[k])
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def cycle_string(perm: Permutation) -> str:
    cycs = cycles(perm)
    if not cycs:
        return "id"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)


# ---------------------------------------------------------------------------
# the inverse Gray map
# ---------------------------------------------------------------------------


def _decode(words: np.ndarray, params: RingParams) -> tuple[np.ndarray, np.ndarray]:
    """Phi^(-1) of each uint8 row, (len(words), blocks) int64 residues, and the preimage mask.

    The residues are read by ``_block_residues``, then re-encoded and
    compared: the mask says which rows are the Gray images of their residues.
    """
    out = _block_residues(params, words, slice(None))
    return out, (np.take(phi_table(params), out, axis=0).reshape(words.shape) == words).all(axis=1)


def gray_inverse(w: np.ndarray, params: RingParams) -> np.ndarray:
    """Phi^(-1) of one p-ary word: its int64 residues, one per p^(s-1)-block.

    NotAGrayImage names the first block that is not a phi-image."""
    w = np.asarray(w)
    width = params.p ** (params.s - 1)
    if w.ndim != 1 or w.dtype.kind not in "iu":
        raise InputError(f"expected one integer word, got {w.dtype} of shape {w.shape}")
    if w.size % width:
        raise InputError(f"word length {w.size} is not a multiple of {width}")
    if w.size and (w.min() < 0 or w.max() >= params.p):
        raise InputError(f"symbols must lie in [0, {params.p})")
    out, preimage = _decode(w.astype(np.uint8)[None, :], params)
    if not preimage[0]:
        i = int(np.flatnonzero(phi_table(params)[out[0]].reshape(-1) != w)[0]) // width
        raise NotAGrayImage(f"block {i} = {w[i * width : (i + 1) * width].tolist()} has no Gray preimage")
    return out[0]


# ---------------------------------------------------------------------------
# companion permutations
# ---------------------------------------------------------------------------


def gamma(p: int, s: int) -> Permutation:
    """The block permutation of one phi-image, an element of S_{p^(s-1)}.

    Writing k-1 = j*p^(s-2) + i with 0 <= j < p and 0 <= i < p^(s-2),
    coordinate k moves to j + i*p + 1 (1-based).  Requires s >= 2.
    """
    RingParams(p, s)
    if s < 2:
        raise InputError("gamma is defined for s >= 2 only")
    n = p ** (s - 2)
    k = np.arange(p ** (s - 1))
    j, i = divmod(k, n)
    return Permutation(j + i * p)


def rho(p: int, n: int) -> Permutation:
    """Interleave p runs of length n: an element of S_{pn}.

    Writing k-1 = j*n + i with 0 <= j < p and 0 <= i < n, coordinate k
    moves to i*p + j + 1 (1-based).
    """
    RingParams(p, 1)
    if n < 1:
        raise InputError("n must be >= 1")
    k = np.arange(p * n)
    j, i = divmod(k, n)
    return Permutation(i * p + j)


# ---------------------------------------------------------------------------
# unmapping residues down one ring level
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tau_table(params: RingParams) -> np.ndarray:
    """Rows = tau(u) for u = 0..p^s-1; shape (p^s, p), int64."""
    unshuffled = apply_inverse(gamma(params.p, params.s), phi_table(params))
    # the rows end to end are one word of p^s blocks: NotAGrayImage counts its blocks across the rows
    table = gray_inverse(unshuffled.reshape(-1), RingParams(params.p, params.s - 1)).reshape(params.modulus, params.p)
    table.flags.writeable = False
    return table


def tau(u: int, params: RingParams) -> np.ndarray:
    """The vector over Z_{p^(s-1)} of length p with Gray image gamma^(-1)(phi(u)), read-only."""
    if params.s < 2:
        raise InputError("tau is defined for s >= 2 only")
    return _tau_table(params)[_residue(u, params)]


def tau_tilde(v: np.ndarray, params: RingParams) -> np.ndarray:
    """Coordinate-wise tau followed by rho^(-1); length p * len(v).

    For v over Z_{p^s} the result lies over Z_{p^(s-1)} and satisfies
    Phi_s(v) == gamma_ext(Phi_{s-1}(rho(tau_tilde(v)))), with gamma
    extended over len(v) blocks and rho = rho(p, len(v)).
    """
    if params.s < 2:
        raise InputError("tau_tilde is defined for s >= 2 only")
    v = np.asarray(v)
    if v.ndim != 1 or v.dtype.kind not in "iu":
        raise InputError(f"expected one integer residue vector, got {v.dtype} of shape {v.shape}")
    r = rho(params.p, len(v))
    if v.min() < 0 or v.max() >= params.modulus:
        raise InputError(f"entries out of range mod {params.modulus}")
    return apply_inverse(r, _tau_table(params)[v].reshape(-1))


# ---------------------------------------------------------------------------
# the paper's step, composed into chain witnesses
# ---------------------------------------------------------------------------


def identity_permutation(n: int) -> Permutation:
    return Permutation(np.arange(n))


def block_lift(perm: Permutation, width: int) -> Permutation:
    """Lift a permutation of blocks to the coordinates of width-sized blocks.

    Block b (coordinates b*width .. b*width+width-1) moves intact to block
    perm(b).
    """
    if width < 1:
        raise InputError("block width must be >= 1")
    base = perm.image[:, None] * width + np.arange(width)[None, :]
    return Permutation(base.reshape(-1))


def gamma_extended(p: int, s: int, blocks: int) -> Permutation:
    """gamma(p, s) applied inside each of `blocks` consecutive phi-blocks."""
    g = gamma(p, s)
    width = g.size
    img = (np.arange(blocks)[:, None] * width + g.image[None, :]).reshape(-1)
    return Permutation(img)


def paper_step(p: int, s: int, n_prime: int) -> Permutation:
    """(gamma_ext . rho_lift)^(-1) in S_{n_prime * p^s}: Gray images over Z_{p^(s+1)} down to Z_{p^s}."""
    return inverse(gamma_extended(p, s + 1, n_prime).compose(block_lift(rho(p, n_prime), p ** (s - 1))))


def paper_witness(p: int, s: int, lo: int, hi: int, t: int) -> Permutation:
    """The steps from position hi down to lo (lo <= hi) of a chain whose representative has s entries, composed.

    The member at position j + 1 lives over Z_{p^(s + j)} and has length
    p^(t - s - j + 1); the composition is the identity when lo = hi.
    """
    steps = (paper_step(p, s + j - 1, p ** (t - s - j + 1)) for j in range(lo, hi))
    return reduce(Permutation.compose, steps, identity_permutation(p**t))
