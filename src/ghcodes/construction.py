"""Additive generalized Hadamard codes over Z_{p^s} and their Gray images.

A type (t_1, ..., t_s) fixes a generator matrix over Z_{p^s}: an all-ones
row, t_1 - 1 more rows of order p^s, then t_i rows of order p^(s-i+1) for
i = 2..s.  It is a product construction unrolled: a row of order p^sigma
(``_sigmas``) is appended at width w, the product of the orders before it
(``_widths``), and holds (j // w mod p^sigma) p^(s - sigma) at coordinate
j.  The code is the Z_{p^s}-span of the rows; its Gray image is a
(generally nonlinear) p-ary code of length p^t with p^(t+1) words and
minimum distance p^(t-1) (p-1).

Every codeword comes from one generator, ``OdometerSpan``: the span of
some p-basis rows in odometer order (the first row's coefficient varies
fastest), held as two span tables whose sum is any word.  It gives words
at any indices, or all of them in blocks of p^b words that each consumer
sizes by one rule, ``_block_words``: ``materialize_additive`` and
``materialize_gray`` fill a code's matrix or Gray image from its blocks,
and ``_gray_blocks`` and ``_digit_blocks`` hand out the Gray words (256 KiB
a block) or the digit words (a lookup step or a rank chunk) of a span one
block at a time.  ``RegeneratedDigits`` holds no words: it rebuilds the
digit word at any odometer row from the span of its basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .gray import _block_residues, _digit_words, gray_matrix, phi_table
from .ring import RingParams

DEFAULT_BUDGET_BYTES = 4 * 2**30
GH_SAMPLE_SEED = 0xC0DE
GH_SAMPLE_PAIRS = 10**6
_EXHAUSTIVE_CUTOFF = 3**6  # largest code size checked pair-by-pair by default


@dataclass(frozen=True)
class TypeSignature:
    """A validated type (t_1, ..., t_s) over Z_{p^s}."""

    params: RingParams
    ts: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def s(self) -> int:
        return self.params.s

    @property
    def t(self) -> int:
        """Length exponent: the Gray image has length p^t."""
        s = self.s
        return sum((s - i) * ti for i, ti in enumerate(self.ts)) - 1

    @property
    def n(self) -> int:
        """Length of the additive code."""
        return self.p ** (self.t - self.s + 1)

    @property
    def size(self) -> int:
        """Number of codewords, p^(t+1)."""
        return self.p ** (self.t + 1)

    @property
    def gray_length(self) -> int:
        return self.p**self.t

    @property
    def num_rows(self) -> int:
        return sum(self.ts)

    def label(self) -> str:
        return ",".join(map(str, self.ts))


def validate_type(p: int, ts: Sequence[int]) -> TypeSignature:
    """Check (t_1, ..., t_s) and wrap it up: t_1 >= 1, all entries >= 0."""
    ts = tuple(int(v) for v in ts)
    if not ts:
        raise InputError("a type needs at least one entry")
    if ts[0] < 1:
        raise InputError(f"t_1 must be >= 1, got {ts[0]}")
    if any(v < 0 for v in ts):
        raise InputError(f"type entries must be >= 0, got {ts}")
    return TypeSignature(RingParams(p, len(ts)), ts)


def _sigmas(sig: TypeSignature) -> np.ndarray:
    """sigma of each generator row, of order p^sigma: s for the t_1 rows of slot 1, s - i + 1 for the t_i of slot i."""
    return np.repeat(np.arange(sig.s, 0, -1), sig.ts)


def _widths(sig: TypeSignature) -> np.ndarray:
    """The coordinate at which each row after the all-ones row is appended: the product of the orders before it."""
    sigmas = _sigmas(sig)[1:]
    return sig.p ** (np.cumsum(sigmas) - sigmas)


def generator_matrix(sig: TypeSignature) -> np.ndarray:
    """Canonical generator matrix in the closed form of the module docstring, shape (sum t_i, n), in the ring's dtype."""
    sigmas = _sigmas(sig)[1:, None]
    rows = np.arange(sig.n) // _widths(sig)[:, None]
    rows %= sig.p**sigmas
    rows *= sig.p ** (sig.s - sigmas)
    gen = np.ones((sig.num_rows, sig.n), dtype=sig.params.dtype())
    gen[1:] = rows
    return gen


def _top_rows(sig: TypeSignature) -> np.ndarray:
    """Which of the t + 1 p-basis rows are top rows p^(sigma_i - 1) w_i, as a bool mask in basis order."""
    top = np.zeros(sig.t + 1, dtype=bool)
    top[np.cumsum(_sigmas(sig)) - 1] = True  # each row's powers p^0 .. p^(sigma_i - 1) are consecutive in the basis
    return top


def order_p_split(code: "AdditiveCode") -> tuple[np.ndarray, np.ndarray]:
    """The p-basis split into its top rows p^(sigma_i - 1) w_i and the other rows, both in basis order.

    The sum t_i top rows (``_top_rows``) have order p and span the order-p
    subgroup C[p] over Z_p.  The odometer span T of the other
    t + 1 - sum t_i rows meets C[p] in 0 only, so every codeword is one
    tau + z with tau in T and z in C[p]: T is a transversal of C / C[p].
    """
    top = _top_rows(code.sig)
    return code.basis[top], code.basis[~top]


def _odometer_digits(p: int, idx: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` base-p digits of each odometer index, lowest first: (len(idx), count) int64."""
    return np.asarray(idx, dtype=np.int64)[:, None] // p ** np.arange(count) % p


@dataclass(frozen=True)
class AdditiveCode:
    """A type together with its generator matrix and p-basis matrix."""

    sig: TypeSignature
    generator: np.ndarray
    basis: np.ndarray  # (t+1, n), rows = p-basis in schedule order

    @classmethod
    def build(cls, sig: TypeSignature) -> "AdditiveCode":
        """The generator, and from it the t + 1 vectors p^q w_i (0 <= q < sigma_i) spanning the code over
        Z_p, each row's powers consecutive, as int64 rows."""
        gen = generator_matrix(sig)
        sigmas = _sigmas(sig)
        powers = sig.p ** (np.arange(sig.t + 1) - np.repeat(np.cumsum(sigmas) - sigmas, sigmas))
        # p^q x mod p^s is p^q (x mod p^(s-q)), which never leaves int64
        basis = np.repeat(gen, sigmas, axis=0).astype(np.int64)
        basis %= sig.params.modulus // powers[:, None]
        basis *= powers[:, None]
        gen.flags.writeable = False
        basis.flags.writeable = False
        return cls(sig, gen, basis)


def build_bytes(sig: TypeSignature) -> int:
    """Bytes ``AdditiveCode.build`` holds at its peak: of t + 1 rows at most, the generator, its rows
    repeated and the int64 basis made from them (the generator's int64 rows are no more), and two
    numpy ufunc buffers of 8192 int64 for the columns broadcast over them."""
    return (sig.t + 1) * sig.n * (8 + 2 * sig.params.dtype().itemsize) + 2**17


def additive_bytes(sig: TypeSignature) -> int:
    """Bytes ``materialize_additive`` holds: the matrix, and the span and block of its stream."""
    words = _block_words(sig.p, sig.t + 1, max(8 * sig.n, sig.gray_length))
    return sig.size * sig.n * sig.params.dtype().itemsize + span_bytes(sig, sig.t + 1, words)


def gray_bytes(sig: TypeSignature) -> int:
    return sig.size * sig.gray_length


def phi_bytes(params: RingParams) -> int:
    """Bytes of the ring's phi table: p^s rows of p^(s-1) symbols."""
    return params.modulus * params.modulus // params.p


def _check_budget(what: str, need: int, budget_bytes: int) -> None:
    """The one budget check: ``need`` is what ``what`` holds at once above the interpreter's baseline."""
    if need > budget_bytes:
        raise CapacityError(f"{what} needs ~{need} bytes (budget {budget_bytes})", need, budget_bytes)


_RANK_CHUNK_BYTES = 2**21  # float rows per chunk that a reduced basis absorbs (invariants._absorb_stream)
_BASIS_BYTES = 2**23  # reduced basis budgeted for: rank 96 at length 3^9 (p = 3, t = 9) is 7.2 MiB of float32


def materialization_bytes(sig: TypeSignature) -> int:
    """Bytes held to build and analyse the Gray image: the image, its ring's
    phi table and the working set of the largest stage that builds or reads it.

    Rank holds the basis (up to ``_BASIS_BYTES``) and its grown copy, and
    five float chunks (the chunk, its pivot coefficients, their product,
    the floor quotient, the echelonized window).  The kernel holds four
    lookup steps (the translates, the words located for them, their
    comparison, the decode arrays) and three 8-byte indices of every word.
    The exhaustive pair scans of ``is_gh_code`` and ``min_distance`` hold four
    buffers of at most ``_PAIR_BLOCK_BYTES`` (the counts of a block of rows,
    their float32 product and the two one-hot operands of p - 1 columns a
    coordinate) and the masks of a block, which are no larger than its
    counts; up to ~720 words a block has at most a quarter of the rows,
    and the buffers hold far less.  The build holds
    the ``OdometerSpan`` of one range of coordinates (``_gray_span``), at
    most ``_SPAN_BYTES`` wherever the span of one coordinate fits it: every
    code whose image fits in memory.  The sampled GH check's bit planes grow
    with the image, so a caller that runs it on a held image adds them
    (``plane_bytes``); its gathers are far below this working set.
    """
    rank = 2 * _BASIS_BYTES + 5 * _RANK_CHUNK_BYTES
    kernel = 4 * _LOOKUP_BYTES + 3 * 8 * sig.size
    return gray_bytes(sig) + phi_bytes(sig.params) + max(rank, kernel, 5 * _PAIR_BLOCK_BYTES, _SPAN_BYTES)


_CHUNK_BYTES = 2**18  # largest array made per block of _odometer_blocks and its consumers


def _add_mod(x: np.ndarray, y: np.ndarray, modulus: int, out: np.ndarray) -> None:
    """out = (x + y) mod modulus for residues in an unsigned dtype that holds x + y.

    Branch-free: x + y - modulus wraps above x + y exactly when x + y < modulus.
    """
    np.add(x, y, out=out)
    np.minimum(out, out - out.dtype.type(modulus), out=out)


def _sum_dtype(sig: TypeSignature) -> np.dtype:
    """The code's dtype, or twice as wide where the sum of two residues overflows it (243 in uint8)."""
    dtype = sig.params.dtype()
    if 2 * (sig.params.modulus - 1) > np.iinfo(dtype).max:
        dtype = np.dtype(f"uint{16 * dtype.itemsize}")
    return dtype


def _block_words(p: int, span: int, word_bytes: int, budget: "int | None" = None, up: bool = False) -> int:
    """Words per block: the largest power of p whose words of ``word_bytes`` fit ``budget`` bytes
    (``_CHUNK_BYTES`` by default), or with ``up`` the smallest whose words reach it; at least 1, at most p^span.

    Gray words take max(8, p^(s-1)) bytes a coordinate (the symbols, or the np.take index of their
    residues), digit words max(8, s); a reduced basis absorbs float rows."""
    rows = max(1, (_CHUNK_BYTES if budget is None else budget) // word_bytes)
    words = 1
    while words < p**span and (words < rows if up else words * p <= rows):
        words *= p
    return words


def _span_table(sig: TypeSignature, rows: np.ndarray) -> np.ndarray:
    """All p^len(rows) words sum_j c_j rows[j] mod p^s, c_j in [0, p), in odometer order.

    The coefficient of rows[0] varies fastest.  Entries are in ``_sum_dtype``.
    """
    p, modulus = sig.p, sig.params.modulus
    table = np.zeros((p ** len(rows), rows.shape[1]), dtype=_sum_dtype(sig))
    filled = 1
    for row in rows.astype(table.dtype):
        for k in range(1, p):
            _add_mod(table[(k - 1) * filled : k * filled], row, modulus, out=table[k * filled : (k + 1) * filled])
        filled *= p
    return table


class OdometerSpan:
    """The odometer span of some rows: word m is sum_j ((m // p^j) mod p) rows[j] mod p^s, in ``_sum_dtype``.

    It holds the span tables ``low`` of the first a = ceil(len(rows)/2) rows and ``high`` of the rest,
    and word m is (low[m mod p^a] + high[m div p^a]) mod p^s.
    """

    def __init__(self, sig: TypeSignature, rows: np.ndarray):
        a = (len(rows) + 1) // 2
        self.sig = sig
        self.split = sig.p**a
        self.low = _span_table(sig, rows[:a])
        self.high = _span_table(sig, rows[a:])

    def __len__(self) -> int:
        return len(self.low) * len(self.high)

    def words(self, idx: np.ndarray) -> np.ndarray:
        """The fresh words at odometer indices ``idx`` (each in [0, len(self)))."""
        out = self.low[idx % self.split]
        _add_mod(out, self.high[idx // self.split], self.sig.params.modulus, out=out)
        return out

    def blocks(self, words: int) -> Iterator[tuple[int, np.ndarray]]:
        """All words as consecutive blocks (first index, block) of min(``words``, len(self)) words, ``words``
        a power of p (``_block_words``); each overwrites the last.  A block is a slice of ``low`` plus one
        high word, or all of ``low`` plus each of a run of high words."""
        size = min(words, len(self))
        block = np.empty((size, self.low.shape[1]), dtype=self.low.dtype)
        view = block.reshape(-1, min(size, self.split), block.shape[1])  # runs of high words x low words
        for start in range(0, len(self), size):
            h, lo = divmod(start, self.split)
            low, high = self.low[lo : lo + view.shape[1]], self.high[h : h + len(view), None]
            _add_mod(low, high, self.sig.params.modulus, out=view)
            yield start, block


def span_bytes(sig: TypeSignature, k: int, words: int = 0) -> int:
    """Bytes an ``OdometerSpan`` of k rows of ``sig.n`` symbols holds: its tables, the ``_add_mod`` temporary
    of the p^(k//2 - 1) rows the second fills last and its cast rows, and a block of ``words`` words twice."""
    p, a = sig.p, (k + 1) // 2
    rows = p**a + p ** (k - a) + p ** (k // 2) // p + k + 2 * words
    return rows * sig.n * _sum_dtype(sig).itemsize


def _odometer_blocks(code: AdditiveCode) -> Iterator[tuple[int, np.ndarray]]:
    """All p^(t+1) codewords in odometer order over the p-basis, in the blocks of ``_gray_blocks``."""
    sig = code.sig
    return OdometerSpan(sig, code.basis).blocks(_block_words(sig.p, sig.t + 1, max(8 * sig.n, sig.gray_length)))


def materialize_additive(code: AdditiveCode) -> np.ndarray:
    """All codewords as one (p^(t+1), n) matrix, odometer row order; the caller checks ``additive_bytes``
    against its budget first."""
    sig = code.sig
    out = np.empty((sig.size, sig.n), dtype=sig.params.dtype())
    for start, block in _odometer_blocks(code):
        out[start : start + len(block)] = block
    return out


_LOOKUP_BYTES = 2**22  # rows gathered per step by GrayCode.locate and the kernel's translate checks


def _decode_plan(sig: TypeSignature) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """(pinned coordinates, divisors, weights) that read a Gray word's odometer row.

    By the closed form of the module docstring, coordinate 0 is e_1, and a
    row of order p^sigma appended at width w is the only row besides the
    all-ones row that is nonzero at coordinate w, where it is p^(s - sigma).
    So row r reads ((c_w - c_0) mod p^s) // p^(s - sigma) at its coordinate
    w, weighted by p^s w; row 0 reads c_0, weight 1.
    """
    widths = _widths(sig)
    return np.r_[0, widths], sig.p ** (sig.s - _sigmas(sig)), np.r_[1, sig.params.modulus * widths]


def _locate(sig: TypeSignature, plan, read, rows: np.ndarray, held: int, held_at, step: int, width: int) -> np.ndarray:
    """For each row, the odometer index of the equal word of the code, or -1 if it is none.

    Each query of ``width`` symbols is decoded to its odometer row m by
    ``plan`` (see ``_decode_plan``) from the residues ``read`` at its pinned
    coordinates; it is a hit when m < ``held`` and the query equals
    ``held_at(m)``, the word there.  Queries run ``step`` rows at a time.
    """
    rows = np.asarray(rows)
    out = np.full(rows.shape[0], -1, dtype=np.int64)
    if rows.shape[1] != width or not held:
        return out
    coords, divisors, weights = plan
    for start in range(0, rows.shape[0], step):
        chunk = rows[start : start + step]  # uncast: a symbol outside [0, p) never equals a member's
        res = read(sig.params, chunk, coords)
        res[:, 1:] -= res[:, :1]
        cand = (res % sig.params.modulus // divisors) @ weights
        inside = cand < held
        hit = inside & (held_at(np.where(inside, cand, 0)) == chunk).all(axis=1)
        out[start : start + step] = np.where(hit, cand, -1)
    return out


@dataclass
class GrayCode:
    """The Gray image of a type's code: one uint8 row per word, in odometer order.

    Membership is algebraic: the residues at the pinned coordinates of
    ``_decode_plan`` give a word's odometer row, and the word is a member
    when it equals the row held there.  The rows may be a prefix of the
    image or altered copies (as in tests of the GH check); a row held out of
    its odometer place is never found.
    """

    sig: TypeSignature
    words: np.ndarray
    _plan: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = field(default=None, repr=False)

    def __post_init__(self):
        self.words = np.ascontiguousarray(self.words, dtype=np.uint8)

    @property
    def length(self) -> int:
        return self.words.shape[1]

    def __len__(self) -> int:
        return self.words.shape[0]

    def index(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The decode plan of ``_decode_plan``, built on first use."""
        if self._plan is None:
            self._plan = _decode_plan(self.sig)
        return self._plan

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """For each row, the index of the equal word of the code, or -1 if it is none.

        Each query is decoded to its odometer row, then compared with the
        held row there.  Queries run in steps of at most 4 MiB, so no
        temporary grows with the code.
        """
        step = max(1, _LOOKUP_BYTES // self.sig.gray_length)
        return _locate(
            self.sig, self.index(), _block_residues, rows, len(self), self.words.__getitem__, step, self.sig.gray_length
        )

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Exact membership of each row."""
        return self.locate(rows) >= 0

    def contains_row(self, row: np.ndarray) -> bool:
        return bool(self.contains_rows(np.asarray(row)[None, :])[0])


_SPAN_BYTES = 2**24  # span tables materialize_gray holds at once, below the rank working set


def _gray_span(sig: TypeSignature) -> "tuple[int, int]":
    """(words a block, coordinates a span) of ``materialize_gray``: the blocks of ``_odometer_blocks``, and
    all n coordinates, or as many as keep one ``OdometerSpan`` of them within ``_SPAN_BYTES`` (at least one)."""
    words = _block_words(sig.p, sig.t + 1, max(8 * sig.n, sig.gray_length))
    per_coordinate = span_bytes(sig, sig.t + 1, words) // sig.n
    return words, max(1, min(sig.n, _SPAN_BYTES // per_coordinate))


def materialize_gray(code: AdditiveCode) -> GrayCode:
    """Gray-expand every codeword into a (p^(t+1), p^t) uint8 matrix; the caller checks
    ``materialization_bytes`` against its budget first.

    Each block of codewords is expanded straight into the one image; no
    additive matrix is held.  The words are spanned on one range of
    coordinates at a time (``_gray_span``), so the span tables stay within
    ``_SPAN_BYTES`` however long the code.
    """
    sig = code.sig
    table = phi_table(sig.params)
    width = table.shape[1]
    words, columns = _gray_span(sig)
    image = np.empty((sig.size, sig.gray_length), dtype=np.uint8)
    for first in range(0, sig.n, columns):
        for start, block in OdometerSpan(sig, code.basis[:, first : first + columns]).blocks(words):
            dest = image[start : start + len(block), first * width : (first + columns) * width]
            np.take(table, block, axis=0, out=dest.reshape(*block.shape, width), mode="clip")  # "raise" would buffer dest
    image.flags.writeable = False
    return GrayCode(sig, image)


def build_gray_code(sig: TypeSignature, budget_bytes: int = DEFAULT_BUDGET_BYTES, beside: int = 0) -> GrayCode:
    """The Gray image of a type's code, checked against the budget with its build and the ``beside`` bytes
    the caller holds with it (as the planes of a sampled GH check) before anything is built."""
    need = build_bytes(sig) + materialization_bytes(sig) + beside
    _check_budget(f"type {sig.ts} over Z_{sig.p}^{sig.s}", need, budget_bytes)
    return materialize_gray(AdditiveCode.build(sig))


def _gray_blocks(sig: TypeSignature, rows: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The Gray images of the odometer span of ``rows``, one fresh block of 256 KiB at a time."""
    words = _block_words(sig.p, len(rows), max(8 * sig.n, sig.gray_length))
    for start, block in OdometerSpan(sig, rows).blocks(words):
        yield start, gray_matrix(sig.params, block)


def _digit_blocks(span: OdometerSpan, words: int) -> Iterator[tuple[int, np.ndarray]]:
    """The digit words of ``span``, one fresh block of ``OdometerSpan.blocks(words)`` at a time."""
    for start, block in span.blocks(words):
        yield start, _digit_words(span.sig.params, block)


def block_bytes(sig: TypeSignature, k: int, width: int, words: int) -> int:
    """Bytes held while a caller works on one block of ``words`` words of ``_gray_blocks`` or ``_digit_blocks``
    of a span of k rows, of ``width`` symbols a word: the span and its block (``span_bytes``), the block's
    np.take index and words, and the caller's copy of them with an 8-byte index a word."""
    return span_bytes(sig, k, words) + words * (8 * sig.n + 2 * width + 8)


def _digit_residues(params: RingParams, words: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The residues read off the digits at each listed coordinate of each digit word, as int64."""
    s = params.s
    return words.reshape(len(words), -1, s)[:, coords].astype(np.int64) @ params.p ** np.arange(s)


class RegeneratedDigits:
    """A code's digit words psi(c) that holds no words: it rebuilds the digit word at any odometer row.

    It holds only ``span``, the ``OdometerSpan`` of the p-basis: word m is
    psi of its word m.  ``locate`` reads the residues at the pinned
    coordinates of ``_decode_plan`` straight off the digits, decodes each
    query's odometer row as ``GrayCode.locate`` does and compares the query
    with the word rebuilt there.

    Given ``sample``, additive coordinates, it and its span are restricted
    to ``coords``: the pinned coordinates, then the sampled ones not among
    them, increasing.  A restricted query is found when it equals the
    restriction of the word its pinned coordinates decode to, as every
    member's does.
    """

    def __init__(self, code: AdditiveCode, sample: "np.ndarray | None" = None):
        sig = code.sig
        coords, divisors, weights = _decode_plan(sig)
        self.coords = np.arange(sig.n)  # the additive coordinates of the words, in their order
        basis = code.basis
        if sample is not None:
            rest = np.bincount(sample, minlength=sig.n).astype(bool)  # not np.setdiff1d, which imports numpy.ma
            rest[coords] = False
            self.coords = np.r_[coords, np.flatnonzero(rest)]
            basis = basis[:, self.coords]
            coords = np.arange(len(coords))
        self.sig = sig
        self.plan = coords, divisors, weights
        self.width = basis.shape[1] * sig.s
        self.step = _block_words(sig.p, sig.t + 1, basis.shape[1] * max(8, sig.s))
        self.span = OdometerSpan(sig, basis)

    @staticmethod
    def lookup_bytes(sig: TypeSignature) -> int:
        """Bytes of the span of an unrestricted lookup (``span_bytes``) and of one ``locate`` step: the
        pinned digits and two int64 arrays of their residues, two gathered table rows, their np.take index,
        the rebuilt digit words and their comparison with the queries."""
        per_query = 3 * 8 * sig.num_rows * sig.s + sig.n * (2 * _sum_dtype(sig).itemsize + 8) + 2 * sig.s * sig.n
        return span_bytes(sig, sig.t + 1) + _block_words(sig.p, sig.t + 1, sig.n * max(8, sig.s)) * per_query

    def __len__(self) -> int:
        return self.sig.size

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The digit words at odometer rows ``idx`` (each in [0, p^(t+1)))."""
        return _digit_words(self.sig.params, self.span.words(idx))

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """For each digit word, the index of the equal word of the code, or -1 if it is none.

        Queries run ``step`` at a time: as many digit words of the held
        coordinates as fit ``_CHUNK_BYTES`` (see ``_block_words``), so a
        rebuilt batch is never larger than a block of a digit stream.
        """
        return _locate(self.sig, self.plan, _digit_residues, rows, len(self), self.rows, self.step, self.width)


# ---------------------------------------------------------------------------
# generalized Hadamard verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GHVerdict:
    passed: bool
    mode: str  # "exhaustive" | "sampled"
    pairs_checked: int
    reason: str = ""
    _distance: "int | None" = field(default=None, repr=False)  # minimum distance, from a completed exhaustive pass

    def __bool__(self) -> bool:
        return self.passed


def _mod_p_diff(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a - b) mod p for uint8 symbol matrices, without leaving uint8.

    The result may be written into ``a``, so callers pass a fresh gather
    they no longer need; that saves one matrix of memory.
    """
    if p > 127:
        return ((a.astype(np.int16) - b) % p).astype(np.uint8)
    # a - b < 0 wraps to 256 + a - b >= 257 - p; adding p wraps exactly
    # those entries back to a - b + p < p and lifts the others to >= p
    d = np.subtract(a, b, out=a)
    np.minimum(d, d + np.uint8(p), out=d)
    return d


def _gh_pairs_ok(counts: np.ndarray, n: int, p: int) -> np.ndarray:
    """GH test per pair from counts[d] = N_d, the coordinates where the difference is d.

    Only N_0 .. N_{p-2} are given; N_{p-1} is n minus their sum.  A pair
    passes when every N_d is n/p (balanced) or when its difference is a
    nonzero constant: N_d = n for some d >= 1, or all given counts are 0.
    """
    balanced = (counts == n // p).all(axis=0)
    constant = (counts[1:] == n).any(axis=0) | ~counts.any(axis=0)
    return balanced | constant


_PAIR_BLOCK_BYTES = 2**22  # per working buffer of _pair_counts
_GATHER_BYTES = 2**18  # per gathered matrix of the sampled check, so its working set stays in cache


def _head(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first prod(shape) entries of a flat buffer, as a C-contiguous array of that shape."""
    return buf[: math.prod(shape)].reshape(shape)


def _pair_counts(words: np.ndarray, p: int, syms: int) -> Iterator[tuple[int, np.ndarray]]:
    """Exact difference counts of all pairs of rows, one block of rows at a time.

    Yields (u0, counts) with counts[d, i, j] = #{c : words[u0+i, c] -
    words[u0+j, c] = d (mod p)} for d < syms, the block rows u0 + i against
    the rows u0 + j from u0 on, so only the blocks on or above the diagonal
    are counted.  Entries with j <= i are not pairs of the scan and are set
    to 0, which passes the GH test (as the constant p - 1) and never raises
    the maximum of N_0.

    One of the p symbols a coordinate is implied by the others, so each
    coordinate takes p - 1 one-hot columns: with indices mod p,
    N_d[i, j] = sum over s < p - 1 of ([w_i = s + d] - [w_i = p - 1 + d]) [w_j = s],
    plus the per-row constant #{c : w_i,c = p - 1 + d}, added once a block.
    The products are float32 GEMMs over coordinate chunks; a chunk adds an
    integer of at most its width (far below 2^24) in absolute value to an
    entry, so every sum is exact, and it is accumulated in int32.  The
    yielded array is overwritten by the next block.

    A block has at most ceil(m/4) rows (at least 64), so the scan counts
    about 5/8 of the m x m square, and the counts, their float32 product
    and the block's one-hot operand are a quarter of those of a block of
    every row.  Each of the four working buffers (these three and the
    one-hot operand of the rows from the block on) holds at most about
    _PAIR_BLOCK_BYTES for a Gray image (n = m/p), whatever its size, and
    at most 1.4 MB for 729 words of 243 symbols at p = 3.
    """
    m, n = words.shape
    k = p - 1
    chunk_cols = min(n, max(1, _PAIR_BLOCK_BYTES // (4 * k * m)))
    block_rows = min(m, max(1, _PAIR_BLOCK_BYTES // (4 * syms * m)), max(64, -(-m // 4)))
    values = np.arange(k, dtype=np.uint8)
    shift = np.arange(syms)
    shifted = ((values + shift[:, None]) % p).astype(np.uint8)  # [d, s] = s + d
    implied = ((k + shift) % p).astype(np.uint8)  # [d] = p - 1 + d
    acc = np.empty(syms * block_rows * m, dtype=np.int32)
    prod = np.empty(acc.size, dtype=np.float32)
    lhs = np.empty(syms * block_rows * p * chunk_cols, dtype=np.float32)
    rhs = np.empty(m * k * chunk_cols, dtype=np.float32)
    for u0 in range(0, m, block_rows):
        left, rest = words[u0 : u0 + block_rows], words[u0:]
        rows, cols = syms * len(left), len(rest)
        counts = _head(acc, (rows, cols))
        counts[:] = 0
        const = np.zeros((syms, len(left)), dtype=np.int64)
        for c0 in range(0, n, chunk_cols):
            width = min(chunk_cols, n - c0)
            # row (d, i) of x holds [w_i,c = s + d] - [w_i,c = p - 1 + d] and row j of y holds [w_j,c = s],
            # over (s, c) with s < p - 1; z holds [w_i,c = p - 1 + d] in the tail of the same buffer
            x = _head(lhs, (syms, len(left), k, width))
            z = lhs[x.size : x.size + rows * width].reshape(syms, len(left), 1, width)
            np.equal(left[None, :, None, c0 : c0 + width], shifted[:, None, :, None], out=x, casting="unsafe")
            np.equal(left[None, :, None, c0 : c0 + width], implied[:, None, None, None], out=z, casting="unsafe")
            np.subtract(x, z, out=x)
            const += np.count_nonzero(z, axis=(2, 3))
            y = _head(rhs, (cols, k, width))
            np.equal(rest[:, None, c0 : c0 + width], values[:, None], out=y, casting="unsafe")
            part = np.matmul(x.reshape(rows, -1), y.reshape(cols, -1).T, out=_head(prod, (rows, cols)))
            np.add(counts, part, out=counts, casting="unsafe")
        counts += const.reshape(rows, 1).astype(np.int32)
        counts = counts.reshape(syms, len(left), cols)
        counts[:, :, : len(left)][:, np.tri(len(left), dtype=bool)] = 0
        yield u0, counts


def _failed(mode: str, checked: int, u: int, v: int, repeated: bool) -> GHVerdict:
    what = "a repeated word" if repeated else "neither constant nor balanced"
    return GHVerdict(False, mode, checked, f"pair ({u}, {v}) is {what}")


def _check_gh_options(mode: str, pairs: int, seed: int) -> None:
    """InputError unless ``is_gh_code`` takes these options, so callers can check them before building a code."""
    if mode not in ("auto", "exhaustive", "sampled"):
        raise InputError(f"unknown mode {mode!r}")
    if pairs < 1:
        raise InputError(f"pairs must be >= 1, got {pairs}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")


def gh_mode(mode: str, words: int) -> str:
    """The mode ``is_gh_code`` runs for ``mode`` on a code of ``words`` words: "auto" is exhaustive up to 3^6 words."""
    if mode == "auto":
        return "exhaustive" if words <= _EXHAUSTIVE_CUTOFF else "sampled"
    return mode


def _plane_shape(p: int, n: int) -> "tuple[int, int]":
    """(b, lanes): the bit planes of a symbol in [0, p), b = bit_length(p - 1), and the uint64 lanes of n symbols."""
    return (p - 1).bit_length(), -(-n // 64)


def _bit_planes(p: int, m: int, n: int, blocks: Iterable[tuple[int, np.ndarray]]) -> np.ndarray:
    """The bit planes of m words of n symbols in [0, p), from (first index, words) blocks that cover them.

    Plane i holds bit i of every symbol, b = bit_length(p - 1) planes in
    all: (b, ceil(n/64), m) uint64, 64 coordinates a lane and the word
    index last, so a gather of words is one np.take along the last axis.
    The padding bits past n are 0.  Each block is packed through one
    reused buffer of a byte per symbol, padded to the lanes.
    """
    b, lanes = _plane_shape(p, n)
    planes = np.empty((b, lanes, m), dtype=np.uint64)
    bits = np.zeros((0, 64 * lanes), dtype=np.uint8)
    for start, words in blocks:
        k = len(words)
        if len(bits) < k:
            bits = np.zeros((k, 64 * lanes), dtype=np.uint8)  # its padding columns stay 0
        for i in range(b):
            np.right_shift(words, i, out=bits[:k, :n])
            np.bitwise_and(bits[:k, :n], 1, out=bits[:k, :n])
            planes[i, :, start : start + k] = np.packbits(bits[:k], axis=1, bitorder="little").view(np.uint64).T
    return planes


def _plane_counts(x: np.ndarray, y: np.ndarray, p: int, work: np.ndarray, ones: np.ndarray, counts: np.ndarray) -> None:
    """counts[d] = the bits, padding included, where z = x - y mod p is d, for each d < p - 1.

    x and y are gathered (b, lanes, k) planes of k pairs; both are
    overwritten, z into x and its complement into y.  z is a borrow chain
    over the b bits, and where it borrowed (x < y, so z wrapped to
    x - y + 2^b) p is added mod 2^b by a carry chain.  The count of d is
    the popcount of the AND over i of z_i or its complement, by bit i of d,
    summed over the lanes; d runs in increasing order, so only the ANDs
    below the highest bit that changed are redone.  ``work`` holds b + 1
    scratch planes and ``ones`` the popcounts of one plane.
    """
    b = len(x)
    borrow, spare, levels = work[0], work[1], work[2:]
    np.invert(x[0], out=borrow)
    np.bitwise_and(borrow, y[0], out=borrow)
    np.bitwise_xor(x[0], y[0], out=x[0])
    for i in range(1, b):
        np.bitwise_xor(x[i], y[i], out=spare)
        np.bitwise_and(y[i], spare, out=y[i])  # ~x & y
        np.bitwise_xor(spare, borrow, out=x[i])
        np.bitwise_and(borrow, x[i], out=borrow)  # borrow & ~(x ^ y)
        np.bitwise_or(borrow, y[i], out=borrow)
    if p & 1:  # p = 2 is 0 mod 2^b; the carry lies within borrow, where the addend's set bits are
        carry = y[0]
        np.bitwise_and(x[0], borrow, out=carry)
        np.bitwise_xor(x[0], borrow, out=x[0])
        for i in range(1, b):
            last = i == b - 1
            if p >> i & 1:
                if not last:
                    np.bitwise_or(x[i], carry, out=spare)
                    np.bitwise_and(spare, borrow, out=spare)  # borrow & (z | carry)
                np.bitwise_xor(x[i], borrow, out=x[i])
            elif not last:
                np.bitwise_and(x[i], carry, out=spare)  # z & carry
            np.bitwise_xor(x[i], carry, out=x[i])
            carry, spare = spare, carry
    np.invert(x, out=y)
    literal = (y, x)  # literal[bit][i]: where bit i of z is ``bit``
    level = [x[0]] * b  # level[j]: the AND of the literals of bits b - 1 .. b - 1 - j of d
    for d in range(p - 1):
        for j in range(b - (d ^ (d - 1)).bit_length() if d else 0, b):
            i = b - 1 - j
            plane = literal[d >> i & 1][i]
            level[j] = plane if j == 0 else np.bitwise_and(level[j - 1], plane, out=levels[j - 1])
        np.bitwise_count(level[-1], out=ones)
        np.add.reduce(ones, axis=0, dtype=counts.dtype, out=counts[d])


def _scan_step(p: int, n: int) -> int:
    """Pairs gathered a step by ``_sampled_scan``: as many as keep one gather of planes within ``_GATHER_BYTES``."""
    return min(8192, max(1, _GATHER_BYTES // (8 * math.prod(_plane_shape(p, n)))))


def plane_bytes(sig: TypeSignature) -> int:
    """Bytes of the bit planes of the sampled GH check (``_bit_planes``): bit_length(p - 1) planes of
    ceil(p^t / 64) uint64 lanes a word, about ceil(log2 p)/8 of the Gray image."""
    return math.prod(_plane_shape(sig.p, sig.gray_length)) * 8 * sig.size


def _scan_bytes(p: int, n: int) -> int:
    """Bytes of the working set of ``_sampled_scan`` on words of n symbols: per pair of a step, two gathers
    and b + 1 scratch planes of uint64 lanes, the popcounts of one plane and the p - 1 counts with the bool
    temporaries of their test; and six int64 arrays of 8192 pairs with a mask: the two of a draw, the two
    kept, and the two kept of the draw before, which its last step still views; and numpy.random, which
    the first draw of a process imports (a peak of 1.0 MB under tracemalloc with numpy 2.4)."""
    b, lanes = _plane_shape(p, n)
    per_pair = (3 * b + 1) * lanes * 8 + lanes + (p - 1) * (np.min_scalar_type(n).itemsize + 2) + 5
    return _scan_step(p, n) * per_pair + 8192 * (6 * 8 + 1) + 2**20


def sampled_gh_bytes(sig: TypeSignature) -> int:
    """Bytes the sampled GH check holds when it streams the bit planes from the p-basis (``is_gh_code`` on
    an ``AdditiveCode``), no Gray image held: the planes (``plane_bytes``), the ring's phi table, one block of
    ``_gray_blocks`` with its span (``span_bytes``), np.take index and Gray words, the Gray words of the block
    before, the block's packing temporaries (a byte per symbol padded to the lanes, and its packed bytes), and
    the working set of the scan (``_scan_bytes``)."""
    n = sig.gray_length
    lanes = _plane_shape(sig.p, n)[1]
    words = _block_words(sig.p, sig.t + 1, max(8 * sig.n, n))
    block = span_bytes(sig, sig.t + 1, words) + words * (8 * sig.n + 2 * n + 72 * lanes)
    return plane_bytes(sig) + phi_bytes(sig.params) + block + _scan_bytes(sig.p, n)


def _sampled_scan(planes: np.ndarray, n: int, p: int, pairs: int, seed: int) -> "tuple[int, tuple[int, int, bool] | None]":
    """The seeded sampled GH check on the bit planes of ``_bit_planes``: (pairs drawn, None) when every
    drawn pair passes, else (pairs drawn, (u, v, repeated)) for the first failing pair drawn.

    ``pairs`` pairs are drawn from ``seed`` 8192 at a time, pairs u = v
    dropped, and the scan stops after the first draw with a failing pair.
    Each step gathers both members' planes into reused buffers and counts
    the symbols of their differences (``_plane_counts``); the padding bits,
    where every difference is 0, are taken off N_0.
    """
    b, lanes, m = planes.shape
    flat = planes.reshape(b * lanes, m)
    step = _scan_step(p, n)
    gathered = np.empty((2, b * lanes * step), dtype=np.uint64)  # made once: a fresh array a step costs mmap calls
    work = np.empty((b + 1) * lanes * step, dtype=np.uint64)
    ones = np.empty(lanes * step, dtype=np.uint8)
    counts = np.empty((p - 1) * step, dtype=np.min_scalar_type(n))  # sums wrap where the padding lifts N_0 past it
    rng = np.random.default_rng(seed)
    checked, remaining = 0, pairs
    while remaining > 0:
        k = min(8192, remaining)
        u, v = rng.integers(0, m, size=k), rng.integers(0, m, size=k)
        keep = u != v
        u, v = u[keep], v[keep]
        checked += int(u.size)
        remaining -= int(u.size)
        for s0 in range(0, u.size, step):
            us, vs = u[s0 : s0 + step], v[s0 : s0 + step]
            rows, cols = (b * lanes, len(us)), (lanes, len(us))
            x = np.take(flat, us, axis=1, out=_head(gathered[0], rows), mode="clip")  # "raise" would buffer out
            y = np.take(flat, vs, axis=1, out=_head(gathered[1], rows), mode="clip")
            c = _head(counts, (p - 1, len(us)))
            _plane_counts(x.reshape(b, *cols), y.reshape(b, *cols), p, _head(work, (b + 1, *cols)), _head(ones, cols), c)
            c[0] -= 64 * lanes - n
            ok = _gh_pairs_ok(c, n, p)
            if not ok.all():
                bad = int(np.flatnonzero(~ok)[0])
                return checked, (int(us[bad]), int(vs[bad]), bool(c[0, bad] == n))
    return checked, None


def is_gh_code(
    code: "GrayCode | AdditiveCode",
    mode: str = "auto",
    pairs: int = GH_SAMPLE_PAIRS,
    seed: int = GH_SAMPLE_SEED,
) -> GHVerdict:
    """Check the Hadamard difference property of a Gray image.

    Every difference of two distinct rows must be a nonzero constant word
    or take each of the p symbols exactly length/p times; a repeated row
    (zero difference) fails.  "auto" checks all pairs for codes up to 3^6
    words and falls back to seeded sampling beyond (``gh_mode``).  ``code``
    is a held image, or an ``AdditiveCode`` whose image is never held by
    the sampled mode (the exhaustive mode builds it; the caller budgets it).

    The exhaustive mode counts the symbols of all m(m-1)/2 differences with
    exact matrix products over p - 1 one-hot columns a coordinate, one block
    of at most ceil(m/4) rows (at least 64) against the rows from it on, so
    only the blocks on or above the diagonal, and reports the first failing
    pair (u < v) in lexicographic order; ``pairs_checked`` is then the
    number of pairs up to and including row u.  An exhaustive pass with no
    failing pair keeps the minimum distance, n less the largest N_0 counted.

    The sampled mode holds the words as bit_length(p - 1) bit planes of
    64-coordinate uint64 lanes (``_bit_planes``), about ceil(log2 p)/8 of
    the image (``plane_bytes``): packed from row slices of a held image, or
    from the Gray blocks of the p-basis span (``_gray_blocks``), so no image
    is held.  It draws ``pairs`` pairs u != v from ``seed``, 8192 per draw,
    and stops at the first draw with a failing pair, reporting the first
    such pair drawn; ``pairs_checked`` then counts the whole draw
    (``_sampled_scan``).  ``pairs`` must be at least 1 and ``seed``
    nonnegative (InputError).
    """
    _check_gh_options(mode, pairs, seed)
    sig, p = code.sig, code.sig.p
    m, n = code.words.shape if isinstance(code, GrayCode) else (sig.size, sig.gray_length)
    mode = gh_mode(mode, m)
    if n % p:
        return GHVerdict(False, mode, 0, f"length {n} not divisible by p")
    if m != sig.size:
        return GHVerdict(False, mode, 0, f"expected {sig.size} words, found {m}")

    if mode == "exhaustive":
        words = code.words if isinstance(code, GrayCode) else materialize_gray(code).words
        same = 0
        for u0, counts in _pair_counts(words, p, p - 1):
            bad = np.flatnonzero(~_gh_pairs_ok(counts, n, p))
            if bad.size:
                i, j = divmod(int(bad[0]), counts.shape[2])
                u, v = u0 + i, u0 + j
                return _failed(mode, (u + 1) * (m - 1) - u * (u + 1) // 2, u, v, np.array_equal(words[u], words[v]))
            same = max(same, int(counts[0].max()))
        return GHVerdict(True, mode, m * (m - 1) // 2, _distance=n - same)

    if isinstance(code, GrayCode):
        rows = max(1, _CHUNK_BYTES // n)
        blocks = ((start, code.words[start : start + rows]) for start in range(0, m, rows))
    else:
        blocks = _gray_blocks(sig, code.basis)
    checked, bad = _sampled_scan(_bit_planes(p, m, n, blocks), n, p, pairs, seed)
    return GHVerdict(True, mode, checked) if bad is None else _failed(mode, checked, *bad)


def min_distance(gc: GrayCode) -> int:
    """Minimum Hamming distance over all pairs of rows u < v (0 if a word repeats).

    The distance of rows u and v is n - N_0[u, v], N_0 being the number of
    equal coordinates; all N_0 come from the blocked exact matrix products
    of the exhaustive GH check, on p - 1 one-hot columns a coordinate and
    on the blocks on or above the diagonal only: at most m^2 n (p - 1)
    multiply-adds, about 5/8 of that from 256 words on, in a few MiB of
    working memory.
    """
    m, n = gc.words.shape
    if m < 2:
        raise InputError("need at least two words")
    same = max(int(counts[0].max()) for _, counts in _pair_counts(gc.words, gc.sig.p, 1))
    return n - same
