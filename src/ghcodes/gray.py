"""The generalized Gray map over Z_{p^s} and the coordinate permutations of Gray images.

The carrier map phi sends a residue u in Z_{p^s}, with base-p digits
(u_0, ..., u_{s-1}), to the p-ary word of length p^(s-1)

    phi(u) = (u_{s-1}, ..., u_{s-1}) + (u_0, ..., u_{s-2}) . Y

where the rows of Y are, in order, the first s-1 rows of the matrix
whose columns run through Z_p^(s-1) in base-p counting order (least
significant digit in the top row).  phi is injective, and the
coordinate-wise extension Phi maps vectors over Z_{p^s} to p-ary words
block by block.  For s = 1 phi is the identity on Z_p.

Residues and Gray words are plain numpy arrays (int64 residues, uint8
symbols), with the ring passed as a ``RingParams``.  ``phi_table`` holds
phi(u) for every u, and ``gray`` computes one row alone, read-only;
``gray_matrix`` expands a batch of residue vectors.

phi is GF(p)-linear and injective on the base-p digits of u.
``digit_table`` holds the digits of every residue and checks that once
per ring, so the rank, kernel and chain checks of the other modules run
on digit words, s symbols a coordinate against the p^(s-1) of Gray words.

A ``Permutation`` moves coordinate k to pi(k): ``result[pi(k)] =
input[k]``.  The chain witness between the Gray images of two members of
one chain is a q-shuffle of their coordinates (``Permutation._shuffle``).
The paper's maps it replaces, gamma, rho, tau, tau_tilde and the inverse
Gray map, are kept in ``tests/paper_steps.py`` as its oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GHCodeError, InputError
from .ring import RingParams

__all__ = [
    "Permutation",
    "digit_table",
    "gray",
    "gray_matrix",
    "phi_table",
]


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def _shuffle_image(length: int, q: int) -> np.ndarray:
    """The image of the q-shuffle of ``length`` coordinates (q divides length): a*q + b (b < q) moves to
    b*length/q + a.  It is written in place, beside two index ranges of length/q and q."""
    image = np.empty(length, dtype=np.int64)
    np.add(np.arange(length // q)[:, None], np.arange(0, length, length // q), out=image.reshape(length // q, q))
    return image


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., n-1} stored as its one-line image array.

    ``image[k]`` is where coordinate k lands: applying the permutation to
    a word x yields y with y[image[k]] = x[k].  It is applied as a gather,
    y[j] = x[source[j]], through the inverse image ``source``, which is
    computed on first use and kept; a q-shuffle (``_shuffle``) is applied
    as a transpose instead.
    """

    image: np.ndarray
    _q = 0  # q of a q-shuffle, 0 for every other permutation (not a field: the image alone is the value)

    def __post_init__(self):
        img = np.asarray(self.image, dtype=np.int64)
        n = img.size
        if n == 0 or img.min() < 0 or img.max() >= n or np.bincount(img, minlength=n).max() != 1:
            raise InputError("not a permutation image")
        img = img.copy()
        img.flags.writeable = False
        object.__setattr__(self, "image", img)

    @classmethod
    def _unchecked(cls, image: np.ndarray) -> "Permutation":
        """Wrap an int64 image that is a permutation by construction, with no check and no copy.

        The array is made read-only and held as it is, so the caller must
        own it.  Every image from outside the program goes through the
        checking constructor.
        """
        perm = object.__new__(cls)
        image.flags.writeable = False
        object.__setattr__(perm, "image", image)
        return perm

    @classmethod
    def _shuffle(cls, length: int, q: int) -> "Permutation":
        """The q-shuffle of ``length`` coordinates (q divides length): a*q + b (b < q) moves to b*length/q + a.

        Its image is written in place (``_shuffle_image``) and wrapped
        unchecked.  Its inverse is the (length/q)-shuffle, written the same
        way, and it is applied to words by a transpose, with neither.
        """
        perm = cls._unchecked(_shuffle_image(length, q))
        object.__setattr__(perm, "_q", q)
        return perm

    @property
    def size(self) -> int:
        return self.image.size

    @cached_property
    def source(self) -> np.ndarray:
        """The inverse image: ``source[j]`` is the coordinate that lands on j."""
        if self._q:
            src = _shuffle_image(self.size, self.size // self._q)
        else:
            src = np.empty_like(self.image)
            src[self.image] = np.arange(self.size)
        src.flags.writeable = False
        return src

    def _words(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[-1] != self.size:
            raise InputError(f"word length {x.shape[-1]} != permutation size {self.size}")
        return x

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Apply to a word (last axis = coordinates)."""
        x = self._words(x)
        if not self._q:
            return np.take(x, self.source, axis=-1)
        # y[b*length/q + a] = x[a*q + b]: the (length/q, q) matrix of each word, transposed
        out = np.empty(x.shape, dtype=x.dtype)
        out.reshape(*x.shape[:-1], self._q, -1)[...] = x.reshape(*x.shape[:-1], -1, self._q).swapaxes(-1, -2)
        return out

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if self.size != other.size:
            raise InputError("size mismatch in composition")
        return Permutation(self.image[other.image])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.image, other.image)


# ---------------------------------------------------------------------------
# the Gray map
# ---------------------------------------------------------------------------


def _phi_rows(p: int, s: int, u: np.ndarray) -> np.ndarray:
    """phi of each residue in ``u``: (len(u), p^(s-1)) uint8."""
    if p > 251:
        raise InputError("symbol alphabet must fit one byte")
    # phi(u)[j] = u_{s-1} + sum_i u_i j_i (mod p) over base-p digits, summed in uint8 (uint16 for p > 128)
    # one row-sized term per digit: the build holds twice the rows and u's digit columns
    j = np.arange(p ** (s - 1), dtype=np.min_scalar_type(p ** (s - 1)))
    dtype = np.min_scalar_type(2 * (p - 1))
    mul = (np.arange(p)[:, None] * np.arange(p) % p).astype(dtype)  # u_i * j_i mod p
    rows = np.repeat((u // p ** (s - 1)).astype(dtype)[:, None], j.size, axis=1)
    for i in range(s - 1):
        term = mul[np.ix_(u // p**i % p, j // p**i % p)]
        np.add(rows, term, out=term)
        np.subtract(term, dtype.type(p), out=rows)  # wraps above the sum exactly when the sum is < p
        np.minimum(rows, term, out=rows)
        del term  # before the next term is made
    return rows.astype(np.uint8, copy=False)


_PHI_SLAB = 2**18  # table entries built at a time, so the build's temporaries stay small beside the table


@lru_cache(maxsize=None)
def _phi_table_cached(p: int, s: int) -> np.ndarray:
    # built a slab of residues at a time straight into the uint8 table: the sums of p > 128 are uint16
    table = np.empty((p**s, p ** (s - 1)), dtype=np.uint8)
    step = max(1, _PHI_SLAB // table.shape[1])
    for start in range(0, len(table), step):
        table[start : start + step] = _phi_rows(p, s, np.arange(start, min(start + step, len(table))))
    table.flags.writeable = False
    return table


def phi_table(params: RingParams) -> np.ndarray:
    """Rows = phi(u) for u = 0..p^s-1; shape (p^s, p^(s-1)), dtype uint8."""
    return _phi_table_cached(params.p, params.s)


@lru_cache(maxsize=None)
def digit_table(params: RingParams) -> np.ndarray:
    """Rows = the base-p digits (u_0, ..., u_{s-1}) of u = 0..p^s-1; shape (p^s, s), uint8, read-only.

    phi is GF(p)-linear in the digits, phi(u) = sum_i u_i phi(p^i) mod p,
    and only u = 0 maps to the zero word, so Phi = A . psi with psi the
    digit map and A injective: a set of codewords has the rank and kernel
    dimension of its digit words.  The first build per ring checks both
    facts on the phi table, a slab of residues at a time, and raises
    GHCodeError naming the ring if either fails.
    """
    p, s = params.p, params.s
    u = np.arange(params.modulus)
    table = (u[:, None] // p ** np.arange(s) % p).astype(np.uint8)
    phi = phi_table(params)
    units = phi[p ** np.arange(s)].astype(np.int32)  # phi(p^i), the rows of A
    step = max(1, _PHI_SLAB // phi.shape[1])
    for start in range(0, len(phi), step):
        rows = phi[start : start + step]
        linear = np.array_equal(table[start : start + step] @ units % p, rows)
        if not linear or not np.array_equal(rows.any(axis=1), u[start : start + step] > 0):
            raise GHCodeError(f"the Gray map of Z_{p}^{s} is not linear and injective on base-p digits")
    table.flags.writeable = False
    return table


def _digit_words(params: RingParams, rows: np.ndarray) -> np.ndarray:
    """psi of a batch: (M, n) residues -> (M, n * s) uint8, the s digits of each coordinate in turn."""
    m, n = rows.shape
    return np.take(digit_table(params), rows, axis=0).reshape(m, n * params.s)


def _residue(u: int, params: RingParams) -> int:
    """u as an int, or InputError unless it is one integer residue mod p^s."""
    try:
        u = operator.index(u)
    except TypeError:
        raise InputError(f"expected one integer residue, got {u!r}") from None
    if not 0 <= u < params.modulus:
        raise InputError(f"{u} is not a residue mod {params.modulus}")
    return u


def gray(u: int, params: RingParams) -> np.ndarray:
    """phi(u): the length-p^(s-1) Gray image of one residue, read-only; the table is not built."""
    row = _phi_rows(params.p, params.s, np.array([_residue(u, params)]))[0]
    row.flags.writeable = False
    return row


def gray_matrix(params: RingParams, rows: np.ndarray) -> np.ndarray:
    """Gray-expand a batch: (M, n) residues -> (M, n * p^(s-1)) uint8.

    np.take converts the residues to an index array of M * n entries, so
    callers pass blocks of a code (see ``construction._gray_blocks``).
    """
    table = phi_table(params)
    m, n = rows.shape
    return np.take(table, rows, axis=0).reshape(m, n * table.shape[1])


def _block_residues(params: RingParams, words: np.ndarray, blocks) -> np.ndarray:
    """The residue read off each listed p^(s-1)-block of each word: (len(words), blocks listed) int64.

    Column 0 of Y is zero and column p^i is e_i, so block[0] = u_{s-1} and
    block[p^i] - block[0] = u_i (mod p).  ``blocks`` indexes the blocks of a
    word (an index array, or a slice).  A block of symbols in [0, p) with no
    phi-preimage still reads as a residue; other symbols read as some integer.
    """
    p, s = params.p, params.s
    read = words.reshape(len(words), -1, p ** (s - 1))[:, blocks]
    lead = read[..., 0].astype(np.uint16)
    out = lead.astype(np.int64)
    for i in reversed(range(s - 1)):  # Horner, from u_{s-2} down to u_0
        digit = read[..., p**i].astype(np.uint16) - lead  # wraps below 0 ...
        np.minimum(digit, digit + np.uint16(p), out=digit)  # ... and back: (a - b) mod p for a, b in [0, p)
        out *= p
        out += digit
    return out
