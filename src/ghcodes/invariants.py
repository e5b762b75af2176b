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

``rank``, ``kernel`` and ``invariant_pair`` read a held image and serve
any code that contains 0.  ``structural_pair`` gives a type's pair without
holding its image.  Phi = A . psi with psi the digit map and A injective
and linear (checked by ``gray.digit_table``), so Phi(C) has the rank and
kernel dimension of psi(C).  On digits the split C = T + C[p] of
``order_p_split`` is exact: adding an order-p word p^(s-1) a changes only
the top digit, with no carry, so psi(tau + z) = psi(tau) + psi(z) for tau
in T and z in C[p], and psi(C[p]) is the span L of psi(top rows).  So
psi(C) = psi(T) + L, which gives

    rank = rank(psi(top rows) and psi(T)),
    ker  = L + {psi(tau) : tau in T, psi(tau) + psi(tau') in psi(C) for every tau' in T},

and both need the p^(t+1 - sum t_i) words of T, not the p^(t+1) of C.
psi(T) is streamed in blocks that each stage asks for in its own size
(``construction._block_words``): rank absorbs chunks of the smallest power
of p whose float rows reach _RANK_CHUNK_BYTES, and the kernel's probes and
translate checks take one locate step of their ``RegeneratedDigits``.
This generalizes the coset-of-kernel argument of Phelps, Rifà and
Villanueva for Z4-linear codes (IEEE Trans. IT 52(1), 2006).  The chain
witnesses of ``equivalence`` are checked on the same split, on the
odometer indices of the located words rather than by translate checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .construction import (
    _LOOKUP_BYTES,
    _RANK_CHUNK_BYTES,
    DEFAULT_BUDGET_BYTES,
    AdditiveCode,
    GrayCode,
    RegeneratedDigits,
    TypeSignature,
    _block_words,
    _check_budget,
    _digit_blocks,
    _mod_p_diff,
    _odometer_digits,
    block_bytes,
    order_p_split,
    phi_bytes,
)
from .errors import InputError
from .gray import _digit_words

_PROBES = 24  # probe words spread over the code that filter the kernel candidates
_PROBE_COORDS = 32  # additive coordinates (besides the pinned ones) on which structural_pair's probes compare
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
    """A GF(p) row space in reduced echelon form, growable a batch at a time.

    With ``budget_bytes`` the rows may take at most that much, held twice
    while they grow; a batch that would take more raises CapacityError.
    """

    p: int
    length: int
    rows: np.ndarray = field(default=None)  # (r, length) floats holding residues
    pivots: list = field(default_factory=list)
    budget_bytes: "int | None" = None

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
            if self.budget_bytes is not None:
                grown = (self.rank + len(new_pivots)) * self.length * self.rows.itemsize
                _check_budget(f"a rank basis of length {self.length}", 2 * grown, self.budget_bytes)
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


def _absorb_stream(basis: ReducedBasis, blocks: Iterator[tuple[int, np.ndarray]]) -> None:
    """Fold blocks (first index, words) into ``basis`` one at a time, until it spans everything."""
    for _, words in blocks:
        basis.absorb(words)
        if basis.rank == basis.length:
            return


def reduced_basis(gc: GrayCode) -> ReducedBasis:
    """Row-reduce the whole word matrix, streaming it in chunks of about _RANK_CHUNK_BYTES of float rows."""
    basis = ReducedBasis(gc.sig.p, gc.length)
    rows = max(1, _RANK_CHUNK_BYTES // (basis.length * basis.rows.itemsize))
    _absorb_stream(basis, ((start, gc.words[start : start + rows]) for start in range(0, len(gc), rows)))
    return basis


def rank(gc: GrayCode) -> int:
    """Dimension over GF(p) of the span of the codewords."""
    return reduced_basis(gc).rank


def is_linear(gc: GrayCode) -> bool:
    """A code containing 0 is linear iff its span is no bigger than itself."""
    return gc.sig.p ** rank(gc) == len(gc)


def _negated(x: np.ndarray, p: int) -> np.ndarray:
    """-x mod p of uint8 symbols."""
    return ((p - x.astype(np.int16)) % p).astype(np.uint8)


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
    neg = _negated(x, p)
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


# ---------------------------------------------------------------------------
# structural rank and kernel of a type
# ---------------------------------------------------------------------------


def _rank_words(sig: TypeSignature) -> int:
    """Digit words of T per rank chunk: the smallest power of p whose float rows reach _RANK_CHUNK_BYTES.

    Rounding up keeps every chunk at least as large as a chunk of the held
    image's rank; rounding down made p = 5, t = 8 slower.
    """
    width = sig.s * sig.n
    word_bytes = width * _float_dtype(sig.p, width).itemsize
    return _block_words(sig.p, sig.t + 1 - sig.num_rows, word_bytes, _RANK_CHUNK_BYTES, up=True)


def structural_bytes(sig: TypeSignature) -> int:
    """Bytes ``structural_pair`` holds at once above the baseline, its reduced bases aside.

    The phi and digit tables, one rank chunk of digit words of T
    (``block_bytes``; the kernel's blocks are no larger), and the larger
    working set of its two stages.  Rank's is five float chunks, as in
    ``materialization_bytes``, each one block of ``_rank_words`` words and
    counted as at least _RANK_CHUNK_BYTES.  The kernel's is a
    ``RegeneratedDigits``'s span tables and one locate step, the probe
    words, a few words of the candidate at hand and two 8-byte indices of
    every word of T.  Each basis checks its own growth against what the
    budget leaves (see ``ReducedBasis``), so no rank is guessed here.
    """
    p, width = sig.p, sig.s * sig.n
    words = _rank_words(sig)
    rank = 5 * max(_RANK_CHUNK_BYTES, words * width * _float_dtype(p, width).itemsize)
    kernel = RegeneratedDigits.lookup_bytes(sig) + (_PROBES + 8) * width + 16 * p ** (sig.t + 1 - sig.num_rows)
    tables = phi_bytes(sig.params) + sig.params.modulus * sig.s
    return tables + block_bytes(sig, width, words) + max(rank, kernel)


def _span_words(sig: TypeSignature, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The words at odometer indices ``idx`` of the span of ``rows``, as int64 residues."""
    return _odometer_digits(sig.p, idx, len(rows)) @ rows.astype(np.int64) % sig.params.modulus


def _split_rank(sig: TypeSignature, tops: np.ndarray, other: np.ndarray, budget_bytes: int) -> int:
    """rank(``tops`` = psi(top) and psi(T)), with psi(T) streamed a rank chunk (``_rank_words``) at a time."""
    basis = ReducedBasis(sig.p, sig.s * sig.n, budget_bytes=budget_bytes)
    basis.absorb(tops)
    _absorb_stream(basis, _digit_blocks(sig, other, _rank_words(sig)))
    return basis.rank


def _probe_survivors(code: AdditiveCode, other: np.ndarray) -> np.ndarray:
    """The indices i of T for which psi(tau_i) + psi(probe) is in psi(C) on a sample of coordinates, for each probe.

    Every kernel tau survives; the probes (words of T spread over its
    odometer order) and the coordinate sample only prune.
    """
    sig, p = code.sig, code.sig.p
    sample = np.unique(np.linspace(0, sig.n - 1, num=min(_PROBE_COORDS, sig.n), dtype=np.int64))
    restricted = RegeneratedDigits(code, sample)
    rows = other[:, restricted.coords]
    negs = _negated(_digit_words(sig.params, _span_words(sig, rows, _probe_indices(p ** len(other)))), p)
    survivors = []
    for start, words in _digit_blocks(sig, rows, restricted.step):
        idx = np.arange(start, start + len(words))
        for neg in negs:
            if not len(idx):
                break
            inside = restricted.locate(_mod_p_diff(words.copy(), neg, p)) >= 0
            words, idx = words[inside], idx[inside]
        survivors.append(idx)
    return np.concatenate(survivors)


def _split_kernel(code: AdditiveCode, tops: np.ndarray, other: np.ndarray, budget_bytes: int) -> int:
    """dim ker: L spanned by ``tops`` = psi(top), then each probe survivor tau checked against all of psi(T).

    A survivor in the span of L and the kernel words already found (0
    among them) is in the kernel; any other is checked exactly, block by
    block of psi(T), with ``RegeneratedDigits.locate``.  The dimension is
    len(tops) + log_p of the number of kernel tau, 0 included.
    """
    sig = code.sig
    survivors = _probe_survivors(code, other)
    lookup = RegeneratedDigits(code)
    basis = ReducedBasis(sig.p, sig.s * sig.n, budget_bytes=budget_bytes)
    basis.absorb(tops)
    for i in survivors:
        x = _digit_words(sig.params, _span_words(sig, other, [i]))
        if not basis.contains(x[0]) and _in_split_kernel(lookup, other, x[0]):
            basis.absorb(x)
    return basis.rank


def _in_split_kernel(lookup: RegeneratedDigits, other: np.ndarray, x: np.ndarray) -> bool:
    """Is x + psi(tau') in psi(C) for every tau' of T, the odometer span of ``other``?

    With T from ``order_p_split``, that is x in ker psi(C): psi(C) =
    psi(T) + L, and L lies in the kernel.  psi(T) is streamed one locate
    step of ``lookup`` at a time.
    """
    sig = lookup.sig
    neg = _negated(x, sig.p)
    blocks = _digit_blocks(sig, other, lookup.step)
    # each block is fresh, so it can hold the sum
    return all((lookup.locate(_mod_p_diff(words, neg, sig.p)) >= 0).all() for _, words in blocks)


def structural_pair(code: AdditiveCode, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> tuple[int, int]:
    """(rank, kernel dimension) of a type's Gray image, from the split C = T + C[p] of ``order_p_split``
    on digit words, holding no image.

    See the module docstring.  The budget is checked against
    ``structural_bytes``; what it leaves bounds each reduced basis.  Both
    raise CapacityError.  A ring whose Gray map fails the check of
    ``gray.digit_table`` raises GHCodeError.
    """
    sig = code.sig
    need = structural_bytes(sig)
    _check_budget(f"rank and kernel of type {sig.ts} over Z_{sig.p}^{sig.s}", need, budget_bytes)
    top, other = order_p_split(code)
    tops = _digit_words(sig.params, top)
    r = _split_rank(sig, tops, other, budget_bytes - need)
    if r == sig.t + 1:
        return r, r
    return r, _split_kernel(code, tops, other, budget_bytes - need)
