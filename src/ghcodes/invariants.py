"""Rank and kernel of p-ary codes, computed exactly over GF(p).

rank(C) is the dimension of the linear span of the words; ker(C) is the
set of x with x + C = C, a subspace whenever 0 is a codeword.  The pair
(rank, kernel dimension) is invariant under coordinate permutation, so it
separates inequivalent codes.

Both computations stream over the word matrix in chunks.  Reduction
against the running row-reduced basis is a single matrix product because
the basis is kept in reduced echelon form: the coefficient of a word on
each pivot row is just its value at the pivot column.  The basis and the
chunks are floats, float32 unless a code is too long for its products to
stay exact (see ``_float_dtype``), so the product is one BLAS GEMM and the
reduction mod p one floor division.  New pivots are found by Gauss-Jordan
on a window of at most ``_WINDOW`` nonzero residues at a time; the rest of
the chunk is then reduced against them by one more GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .construction import _LOOKUP_BYTES, _RANK_CHUNK_BYTES, GrayCode, _mod_p_diff
from .errors import InputError

_PROBES = 24  # probe words spread over the code that filter the kernel candidates
_WINDOW = 64  # nonzero residues echelonized at a time by ReducedBasis.absorb
_FLOAT32_EXACT = 2**24  # integers of magnitude up to 2^24 are exact in float32


def _float_dtype(p: int, length: int) -> np.dtype:
    """float32 when every value of the elimination is exact in it, else float64.

    Words, rows and coefficients hold residues in [0, p), so a product row
    ``coeffs @ rows`` sums at most ``length`` terms of at most (p-1)^2 each,
    and every value x it leaves before reduction has |x| <= length*(p-1)^2 + p.
    Below 2^24 such integers, and every partial sum, are exact in float32.
    The floor modulo x - p*floor(x/p) is exact as well when |x| < 2^24/p:
    then |x/p| < 2^24/p^2, so rounding moves x/p by less than 1/p^2, which
    never carries it past the next integer (at least 1/p away unless p | x,
    when x/p is exact), and p*floor(x/p) is exact.  float64 gives the same
    guarantee below 2^53/p, far beyond any code that fits in memory.
    """
    if length * (p - 1) ** 2 + p < _FLOAT32_EXACT / p:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float integers x (exact under _float_dtype's bound)."""
    q = np.divide(x, p)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


@dataclass
class ReducedBasis:
    """A GF(p) row space in reduced echelon form, growable a batch at a time."""

    p: int
    length: int
    rows: np.ndarray = field(default=None)  # (r, length) floats holding residues
    pivots: list = field(default_factory=list)

    def __post_init__(self):
        if self.rows is None:
            self.rows = np.empty((0, self.length), dtype=_float_dtype(self.p, self.length))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, x: np.ndarray, pivots: list, rows: np.ndarray) -> np.ndarray:
        """Subtract from each row of x its coefficients on rows (reduced, pivots given), in place."""
        if pivots:
            # exact: |entries| stay below 2^24/p in float32 (2^53/p in float64), see _float_dtype
            x -= x[:, pivots] @ rows
        return _mod_p(x, self.p)

    def reduce(self, batch: np.ndarray) -> np.ndarray:
        """Residues of a batch of words with entries in [0, p) modulo the row space.

        Shape preserved; the residues are floats of the basis's dtype."""
        x = np.array(batch, dtype=self.rows.dtype)
        return self._eliminate(x, self.pivots, self.rows)

    def _echelonize(self, win: np.ndarray) -> tuple[np.ndarray, list]:
        """Gauss-Jordan on a few residue rows, in place; their nonzero rows and pivots."""
        p = self.p
        pivots, keep = [], []
        for i in range(len(win)):
            nz = np.flatnonzero(win[i])
            if not nz.size:
                continue
            lead = int(nz[0])
            row = win[i]
            row *= pow(int(row[lead]), -1, p)
            _mod_p(row, p)
            coeffs = win[:, lead].copy()
            coeffs[i] = 0
            win -= np.outer(coeffs, row)
            _mod_p(win, p)
            pivots.append(lead)
            keep.append(i)
        return win[keep], pivots

    def absorb(self, batch: np.ndarray) -> int:
        """Fold a batch of words with entries in [0, p) into the basis; returns rows added."""
        before = self.rank
        residue = self.reduce(batch)
        nz = np.flatnonzero(residue.any(axis=1))
        while nz.size:
            new_rows, new_pivots = self._echelonize(residue[nz[:_WINDOW]])
            # new rows vanish at the old pivots: clearing their pivots from the old rows keeps both reduced
            self._eliminate(self.rows, new_pivots, new_rows)
            self.rows = np.vstack([self.rows, new_rows])
            self.pivots += new_pivots
            residue = self._eliminate(residue[nz[_WINDOW:]], new_pivots, new_rows)
            nz = np.flatnonzero(residue.any(axis=1))
        return self.rank - before

    def contains(self, word: np.ndarray) -> bool:
        """Is a word with entries in [0, p) in the row space?"""
        return not self.reduce(np.asarray(word)[None, :]).any()


def reduced_basis(gc: GrayCode) -> ReducedBasis:
    """Row-reduce the whole word matrix, streaming in chunks of about _RANK_CHUNK_BYTES of float rows."""
    basis = ReducedBasis(gc.sig.p, gc.length)
    chunk_rows = max(1, _RANK_CHUNK_BYTES // (gc.length * basis.rows.itemsize))
    for start in range(0, len(gc), chunk_rows):
        basis.absorb(gc.words[start : start + chunk_rows])
        if basis.rank == gc.length:
            break
    return basis


def rank(gc: GrayCode) -> int:
    """Dimension over GF(p) of the span of the codewords."""
    return reduced_basis(gc).rank


def is_linear(gc: GrayCode) -> bool:
    """A code containing 0 is linear iff its span is no bigger than itself."""
    return gc.sig.p ** rank(gc) == len(gc)


def _probe_indices(m: int) -> np.ndarray:
    idx = np.unique(np.linspace(0, m - 1, num=min(_PROBES, m), dtype=np.int64))
    return idx[idx > 0]


def kernel(gc: GrayCode) -> tuple[int, ReducedBasis]:
    """Kernel dimension and a reduced basis of ker = {x : x + C = C}.

    Candidates (all codewords) are first filtered against a few probe
    words — x survives only if x + probe stays in the code.  Survivors in
    the span of already-accepted kernel vectors are skipped (the kernel is
    a subspace), the rest are verified against every codeword.  The result
    is exact; probing only prunes.
    """
    words, m, p = gc.words, len(gc), gc.sig.p
    if not gc.contains_row(np.zeros(gc.length, dtype=np.uint8)):
        raise InputError("kernel needs 0 in the code")

    surv = np.arange(m)
    for pi in _probe_indices(m):
        if surv.size <= 1:
            break
        surv = surv[np.concatenate(list(_translates_inside(gc, surv, words[pi])))]

    accepted = ReducedBasis(p, gc.length)
    for idx in surv:
        x = words[idx]
        if accepted.contains(x):  # skips 0 and anything already spanned
            continue
        if all(inside.all() for inside in _translates_inside(gc, np.arange(m), x)):
            accepted.absorb(x[None, :])
    return accepted.rank, accepted


def _translates_inside(gc: GrayCode, idx: np.ndarray, x: np.ndarray) -> Iterator[np.ndarray]:
    """Is words[i] + x in the code, for the rows i of idx? One array per step of at most 4 MiB of rows."""
    p = gc.sig.p
    neg = ((p - x.astype(np.int64)) % p).astype(np.uint8)
    step = max(1, _LOOKUP_BYTES // gc.length)
    for start in range(0, len(idx), step):
        # the gather is fresh, so it can hold the sum
        yield gc.contains_rows(_mod_p_diff(gc.words[idx[start : start + step]], neg, p))


def invariant_pair(gc: GrayCode) -> tuple[int, int]:
    """(rank, kernel dimension); kernel is skipped when the code is linear."""
    r = rank(gc)
    dims = gc.sig.t + 1
    if r == dims:
        return r, dims
    k, _ = kernel(gc)
    return r, k
