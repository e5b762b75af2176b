"""The paper's step permutations, kept as the oracle of the library's chain witness.

The paper carries the Gray image of a code over Z_{p^(s+1)} one ring
level down by (gamma_ext . rho_lift)^(-1): gamma acting inside each
phi-block, after rho interleaving the blocks.  The witness between two
positions of a chain composes those steps.  The library builds the same
witness as one index shuffle (``gray.Permutation._shuffle``); the tests check
that the two agree on every chain pair.
"""

from functools import reduce

import numpy as np

from ghcodes.errors import InputError
from ghcodes.gray import Permutation, gamma, rho


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
    return gamma_extended(p, s + 1, n_prime).compose(block_lift(rho(p, n_prime), p ** (s - 1))).inverse()


def paper_witness(p: int, s: int, lo: int, hi: int, t: int) -> Permutation:
    """The steps from position hi down to lo (lo <= hi) of a chain whose representative has s entries, composed.

    The member at position j + 1 lives over Z_{p^(s + j)} and has length
    p^(t - s - j + 1); the composition is the identity when lo = hi.
    """
    steps = (paper_step(p, s + j - 1, p ** (t - s - j + 1)) for j in range(lo, hi))
    return reduce(Permutation.compose, steps, identity_permutation(p**t))
