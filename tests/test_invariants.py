"""Rank and kernel of Gray images, against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from ghcodes import invariants
from ghcodes.classification import census, is_linear_type
from ghcodes.construction import AdditiveCode, build_gray_code, materialization_bytes, materialize_gray, validate_type
from ghcodes.gray import Permutation, _phi_table_cached
from ghcodes.invariants import (
    ReducedBasis,
    _float_dtype,
    _mod_p,
    invariant_pair,
    is_linear,
    kernel,
    rank,
    reduced_basis,
)

from sorted_key_code import SortedKeyCode, set_equal


def gc_for(p, ts):
    return build_gray_code(validate_type(p, ts))


def naive_rank(words, p):
    """Textbook Gauss-Jordan over GF(p), no chunking or short-cuts."""
    a = words.astype(np.int64) % p
    m, n = a.shape
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        hit = np.nonzero(a[:, c])[0]
        for i in hit:
            if i != r:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        r += 1
        if r == m:
            break
    return r


def naive_kernel_dim(words, p):
    """Count words x with x + C = C, by direct translation."""
    keys = {row.tobytes() for row in words}
    hits = 0
    for x in words:
        shifted = (words.astype(np.int64) + x) % p
        shifted = shifted.astype(words.dtype)
        if all(row.tobytes() in keys for row in shifted):
            hits += 1
    dim = 0
    while p**dim < hits:
        dim += 1
    assert p**dim == hits, "kernel size must be a power of p"
    return dim


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,ts",
    [(3, (1, 1)), (3, (2, 0)), (3, (2, 1)), (3, (1, 1, 0)), (2, (2, 1)), (2, (1, 1, 0)), (5, (1, 0))],
)
def test_rank_matches_gauss_jordan(p, ts):
    gc = gc_for(p, ts)
    assert rank(gc) == naive_rank(gc.words, p)


@pytest.mark.parametrize(
    "p,ts",
    [(3, (1, 1)), (3, (2, 0)), (3, (2, 1)), (3, (1, 1, 0)), (2, (2, 1)), (2, (1, 1, 0))],
)
def test_kernel_matches_translation_count(p, ts):
    gc = gc_for(p, ts)
    dim, basis = kernel(gc)
    assert dim == naive_kernel_dim(gc.words, p)
    assert basis.rank == dim
    # every basis vector really is a translation-invariant codeword
    for row in basis.rows:
        assert gc.contains_row(row.astype(gc.words.dtype))
        shifted = (gc.words.astype(np.int64) + row) % p
        assert set_equal(gc, shifted.astype(gc.words.dtype))


# ---------------------------------------------------------------------------
# published invariants for small types
# ---------------------------------------------------------------------------

RK_GOLDEN = [
    (3, (2, 1), 6, 3),
    (3, (1, 1, 0), 6, 3),
    (3, (2, 2), 7, 4),
    (3, (3, 0), 11, 3),
    (3, (2, 0, 0), 13, 2),
    (3, (1, 1, 1), 7, 4),
    (3, (1, 0, 1, 0), 7, 4),
]


@pytest.mark.parametrize("p,ts,r,k", RK_GOLDEN)
def test_rank_kernel_small_table(p, ts, r, k):
    assert invariant_pair(gc_for(p, ts)) == (r, k)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_invariants_stable_under_column_permutation():
    gc = gc_for(3, (2, 1))
    rng = np.random.default_rng(11)
    pi = Permutation(rng.permutation(gc.length))
    permuted = SortedKeyCode(gc.sig, pi(gc.words))  # a permuted image needs a general word-set index
    assert invariant_pair(permuted) == invariant_pair(gc)


@pytest.mark.parametrize(
    "p,ts",
    [(3, (3,)), (3, (1, 0, 2)), (2, (2, 2)), (2, (1, 1, 2)), (2, (1, 0, 1, 1))],
)
def test_linear_codes_have_full_rank_and_kernel(p, ts):
    gc = gc_for(p, ts)
    t = gc.sig.t
    assert is_linear(gc)
    assert is_linear_type(p, ts)
    assert invariant_pair(gc) == (t + 1, t + 1)


@pytest.mark.parametrize("p,ts", [(3, (2, 1)), (3, (1, 1, 0)), (2, (3, 0))])
def test_nonlinear_codes_detected(p, ts):
    gc = gc_for(p, ts)
    assert not is_linear(gc)
    assert not is_linear_type(p, ts)


def test_kernel_dim_sandwiched_by_code_dimension():
    # span is at least as big as the code, the kernel never bigger
    for p, ts in [(3, (2, 1)), (3, (2, 2)), (2, (2, 1))]:
        gc = gc_for(p, ts)
        r, k = invariant_pair(gc)
        assert k <= gc.sig.t + 1 <= r


def test_reduced_basis_incremental():
    basis = ReducedBasis(3, 4)
    assert basis.contains(np.zeros(4, dtype=np.int64))
    assert not basis.contains(np.array([1, 0, 0, 0]))
    added = basis.absorb(np.array([[1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0]]))
    assert added == 2
    assert basis.rank == 2
    assert basis.contains(np.array([1, 2, 0, 0]))
    assert not basis.contains(np.array([0, 0, 1, 0]))


def test_reduced_basis_matches_streaming(monkeypatch):
    gc = gc_for(3, (2, 1))
    want = rank(gc)
    monkeypatch.setattr(invariants, "_RANK_CHUNK_BYTES", 17 * gc.length * 4)  # 17 float32 rows a chunk
    assert reduced_basis(gc).rank == want


def test_kernel_gathers_rows_in_bounded_steps():
    # the probes and translate checks gather at most 4 MiB of rows per step, never the
    # whole image: here 6561 x 2187 bytes (13.7 MiB), against a 16 MiB bound
    gc = gc_for(3, (2, 0, 0, 0))
    tracemalloc.start()
    try:
        dim, _ = kernel(gc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 2
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("p,t", [(3, 6), (3, 7), (2, 10), (5, 5)])
def test_estimate_bounds_building_and_ranking_each_representative(p, t):
    # the image with its phi table built cold, then rank and kernel: at most
    # materialization_bytes above the baseline (the 4x estimate was 6.3 MiB at
    # p = 3, t = 6, under a 7.3 MiB peak)
    for rep in sorted({row.representative for row in census(t, p).rows if not row.linear}):
        sig = validate_type(p, rep)
        _phi_table_cached.cache_clear()
        tracemalloc.start()
        try:
            invariant_pair(materialize_gray(AdditiveCode.build(sig)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= materialization_bytes(sig), (rep, peak)


def test_rank_holds_one_chunk_of_float_rows():
    # rank reduces about 2 MiB of float32 rows at a time, never a copy of the whole
    # image (6561 x 2187 bytes, 13.7 MiB, as uint8) nor int64 chunks of it
    gc = gc_for(3, (2, 0, 0, 0))
    tracemalloc.start()
    try:
        r = rank(gc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == 34
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------------------
# blocked float elimination against Gauss-Jordan
# ---------------------------------------------------------------------------


def random_gf_matrices(p, rng):
    """Matrices over GF(p) of every kind the elimination must handle."""
    n = int(rng.integers(5, 13))
    low = (rng.integers(0, p, (int(rng.integers(20, 60)), 3)) @ rng.integers(0, p, (3, n))) % p
    low[rng.integers(0, len(low), 5)] = 0  # zero rows
    low[::7] = low[1]  # repeated rows
    unit = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)
    full = np.vstack([unit, rng.integers(0, p, (n, n))])[rng.permutation(2 * n)]  # full rank
    wide = rng.integers(0, p, (int(rng.integers(1, n)), n))  # fewer rows than columns
    return [low, full, wide, np.zeros((9, n), dtype=np.int64)]


def assert_reduced_span_of(basis, words, p):
    piv = basis.pivots
    assert len(set(piv)) == len(piv)
    assert np.array_equal(basis.rows[:, piv], np.eye(len(piv)))
    assert np.array_equal(basis.rows, np.floor(basis.rows)) and basis.rows.min(initial=0) >= 0
    assert basis.rows.max(initial=0) < p
    assert all(basis.contains(w) for w in words)
    assert basis.rank == naive_rank(words, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("window,chunk", [(1, 1), (64, 1000), (3, 7), (5, 13)])
def test_absorb_matches_gauss_jordan(p, window, chunk, monkeypatch):
    monkeypatch.setattr(invariants, "_WINDOW", window)
    rng = np.random.default_rng([p, window, chunk])
    for words in random_gf_matrices(p, rng):
        basis = ReducedBasis(p, words.shape[1])
        added = sum(basis.absorb(words[i : i + chunk].astype(np.uint8)) for i in range(0, len(words), chunk))
        assert added == basis.rank
        assert basis.rows.dtype == np.float32
        assert_reduced_span_of(basis, words, p)


@pytest.mark.parametrize("p,ts", [(2, (2, 1)), (3, (2, 1)), (3, (1, 1, 0)), (5, (1, 0)), (7, (1, 0))])
@pytest.mark.parametrize("window,chunk_rows", [(1, 1), (3, 10), (64, 100)])
def test_rank_matches_gauss_jordan_across_seams(p, ts, window, chunk_rows, monkeypatch):
    gc = gc_for(p, ts)
    monkeypatch.setattr(invariants, "_WINDOW", window)
    # chunks of chunk_rows float32 rows, which leave a short last chunk here
    monkeypatch.setattr(invariants, "_RANK_CHUNK_BYTES", chunk_rows * gc.length * 4)
    assert len(gc) % chunk_rows or chunk_rows == 1
    assert rank(gc) == naive_rank(gc.words, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_float64_elimination_when_float32_is_not_exact(p, monkeypatch):
    monkeypatch.setattr(invariants, "_FLOAT32_EXACT", 1)
    monkeypatch.setattr(invariants, "_WINDOW", 4)
    rng = np.random.default_rng(p)
    for words in random_gf_matrices(p, rng):
        basis = ReducedBasis(p, words.shape[1])
        basis.absorb(words)
        assert basis.rows.dtype == np.float64
        assert_reduced_span_of(basis, words, p)
    gc = gc_for(p, (2, 1) if p < 7 else (1, 0))
    monkeypatch.setattr(invariants, "_RANK_CHUNK_BYTES", 11 * gc.length * 8)  # 11 float64 rows a chunk
    assert reduced_basis(gc).rows.dtype == np.float64
    assert rank(gc) == naive_rank(gc.words, p)


def test_float_dtype_bound():
    # length*(p-1)^2 + p < 2^24/p picks float32
    assert _float_dtype(3, 3**10) == np.float32
    assert _float_dtype(3, (2**24 // 3 - 3) // 4) == np.float32
    assert _float_dtype(3, (2**24 // 3 - 3) // 4 + 1) == np.float64
    assert _float_dtype(7, 70_000) == np.float64


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_floor_modulo_exact_up_to_the_bound(p):
    top = -(-(2**24) // p) - 1  # largest |x| with |x| < 2^24/p
    rng = np.random.default_rng(p)
    x = np.concatenate(
        [np.arange(top - 5000, top + 1), np.arange(-top, -top + 5000), np.arange(-500, 500), rng.integers(-top, top + 1, 20000)]
    )
    assert np.array_equal(_mod_p(x.astype(np.float32), p), x % p)
