"""Rank and kernel of p-ary codes, computed exactly over GF(p).

rank(C) is the dimension of the linear span of the words; ker(C) is the
set of x with x + C = C, a subspace whenever 0 is a codeword.  The pair
(rank, kernel dimension) is invariant under coordinate permutation, so it
separates inequivalent codes.

Both computations stream over the word matrix in chunks.  Reduction
against the running row-reduced basis is a single matrix product because
the basis is kept in reduced echelon form: the coefficient of a word on
each pivot row is just its value at the pivot column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .construction import _LOOKUP_BYTES, GrayCode, _mod_p_diff
from .errors import InputError

_PROBES = 24  # probe words spread over the code that filter the kernel candidates


@dataclass
class ReducedBasis:
    """A GF(p) row space in reduced echelon form, growable one row at a time."""

    p: int
    length: int
    rows: np.ndarray = field(default=None)  # (r, length) int64
    pivots: list = field(default_factory=list)

    def __post_init__(self):
        if self.rows is None:
            self.rows = np.empty((0, self.length), dtype=np.int64)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, batch: np.ndarray) -> np.ndarray:
        """Residues of the batch modulo the row space, shape preserved."""
        batch = np.asarray(batch, dtype=np.int64)
        if self.rank == 0:
            return batch % self.p
        coeffs = batch[:, self.pivots]
        # exact: entries stay far below 2^53, so BLAS on float64 is safe
        prod = (coeffs.astype(np.float64) @ self.rows.astype(np.float64)).astype(np.int64)
        return (batch - prod) % self.p

    def _insert(self, residue: np.ndarray) -> None:
        lead = int(np.flatnonzero(residue)[0])
        inv = pow(int(residue[lead]), -1, self.p)
        row = residue * inv % self.p
        if self.rank:
            self.rows = (self.rows - np.outer(self.rows[:, lead], row)) % self.p
        self.rows = np.vstack([self.rows, row])
        self.pivots.append(lead)

    def absorb(self, batch: np.ndarray) -> int:
        """Fold a batch of words into the basis; returns rows added."""
        residue = self.reduce(batch)
        added = 0
        nz = np.flatnonzero(residue.any(axis=1))
        while nz.size:
            first = residue[nz[0]]
            self._insert(first)
            added += 1
            rest = residue[nz[1:]]
            lead = self.pivots[-1]
            rest = (rest - np.outer(rest[:, lead], self.rows[-1])) % self.p
            residue = rest
            nz = np.flatnonzero(residue.any(axis=1))
        return added

    def contains(self, word: np.ndarray) -> bool:
        return not self.reduce(np.asarray(word, dtype=np.int64)[None, :]).any()


def reduced_basis(gc: GrayCode, chunk_rows: int = 1024) -> ReducedBasis:
    """Row-reduce the whole word matrix, streaming in chunks."""
    basis = ReducedBasis(gc.sig.p, gc.length)
    m = len(gc)
    for start in range(0, m, chunk_rows):
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
            accepted.absorb(x.astype(np.int64)[None, :])
    return accepted.rank, accepted


def _translates_inside(gc: GrayCode, idx: np.ndarray, x: np.ndarray) -> Iterator[np.ndarray]:
    """Is words[i] + x in the code, for the rows i of idx? One array per step of at most 4 MiB of rows."""
    p = gc.sig.p
    neg = ((p - x.astype(np.int64)) % p).astype(np.uint8)
    step = max(1, _LOOKUP_BYTES // gc.length)
    for start in range(0, len(idx), step):
        # the gather is fresh, so it can hold the sum
        yield gc.contains_rows(_mod_p_diff(gc.words[idx[start : start + step]], neg, p, overwrite_a=True))


def invariant_pair(gc: GrayCode) -> tuple[int, int]:
    """(rank, kernel dimension); kernel is skipped when the code is linear."""
    r = rank(gc)
    dims = gc.sig.t + 1
    if r == dims:
        return r, dims
    k, _ = kernel(gc)
    return r, k
