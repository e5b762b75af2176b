"""Rank and kernel of Gray images, against brute-force oracles."""

import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ghcodes import invariants
from ghcodes.classification import census, enumerate_types, is_linear_type
from ghcodes.construction import (
    AdditiveCode,
    build_gray_code,
    materialization_bytes,
    materialize_gray,
    order_p_split,
    validate_type,
)
from ghcodes.errors import CapacityError, GHCodeError, InputError
from ghcodes.gray import Permutation, _phi_table_cached, digit_table, gray, phi_table
from ghcodes.invariants import (
    ReducedBasis,
    _float_dtype,
    _mod_p,
    _probe_survivors,
    invariant_pair,
    is_linear,
    kernel,
    rank,
    reduced_basis,
    structural_bytes,
    structural_pair,
)
from ghcodes.ring import RingParams

from probe_oracle import probe_survivors_one_at_a_time
from sorted_key_code import SortedKeyCode, set_equal

construction = importlib.import_module("ghcodes.construction")
gray_module = importlib.import_module("ghcodes.gray")


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


# ---------------------------------------------------------------------------
# structural rank and kernel against the held image
# ---------------------------------------------------------------------------

STRUCTURAL_T_MAX = {2: 9, 3: 7, 5: 5, 7: 4}  # per p, the lengths p^t of the differential test


def nonlinear_types(p, t_max):
    return [
        ts
        for t in range(1, t_max + 1)
        for s in range(1, t + 2)
        for ts in enumerate_types(t, s)
        if not is_linear_type(p, ts)
    ]


def held_pair(code):
    return invariant_pair(materialize_gray(code))


def test_the_differential_test_covers_96_nonlinear_types():
    assert {p: len(nonlinear_types(p, t)) for p, t in STRUCTURAL_T_MAX.items()} == {2: 55, 3: 30, 5: 8, 7: 3}


@pytest.mark.parametrize("p", sorted(STRUCTURAL_T_MAX))
def test_structural_pair_matches_the_held_image_on_every_nonlinear_type(p):
    for ts in nonlinear_types(p, STRUCTURAL_T_MAX[p]):
        code = AdditiveCode.build(validate_type(p, ts))
        assert structural_pair(code.sig) == held_pair(code), ts


@pytest.mark.parametrize("p,ts", [(3, (3,)), (3, (1, 0, 2)), (2, (2, 2)), (2, (1, 1, 2)), (2, (1, 0, 1, 1)), (5, (1, 1))])
def test_structural_pair_of_a_linear_type_is_full(p, ts):
    sig = validate_type(p, ts)
    assert structural_pair(sig) == (sig.t + 1, sig.t + 1)


@pytest.mark.parametrize("p,ts", [(2, (3, 0, 1)), (3, (2, 0, 1)), (3, (1, 1, 1, 0)), (5, (2, 0)), (7, (1, 1, 0))])
def test_order_p_split_is_a_transversal_of_the_order_p_subgroup(p, ts):
    code = AdditiveCode.build(validate_type(p, ts))
    sig = code.sig
    top, other = order_p_split(code)
    assert len(top) == sig.num_rows and len(other) == sig.t + 1 - sig.num_rows
    assert not (p * top % sig.params.modulus).any()  # order p
    # every codeword is one tau + z, with tau from the odometer span of the other rows and z from that of the top rows
    span = lambda rows: construction.OdometerSpan(sig, rows).words(np.arange(p ** len(rows))).astype(np.int64)
    sums = (span(other)[:, None, :] + span(top)[None, :, :]) % sig.params.modulus
    codewords = construction.materialize_additive(code).astype(np.int64)
    as_set = lambda words: {row.tobytes() for row in words}
    assert as_set(sums.reshape(-1, sig.n)) == as_set(codewords) and sums.shape[0] * sums.shape[1] == sig.size


IDENTITY_RINGS = [(p, s) for p, t_max in STRUCTURAL_T_MAX.items() for s in range(1, t_max + 1)]


@pytest.mark.parametrize("p,s", IDENTITY_RINGS)
def test_order_p_identity_holds_on_every_ring_of_the_differential_test(p, s):
    # every ring a nonlinear type of the differential test lives over, every v and every a: on digit words
    # this needs no check, and on Gray words it follows from the ring check below
    table = phi_table(RingParams(p, s)).astype(np.int16)
    top = p ** (s - 1)
    v = np.arange(p**s)
    for a in range(p):
        assert np.array_equal(table[(v + a * top) % p**s], (table + table[a * top]) % p), a


@pytest.mark.parametrize("p,s", IDENTITY_RINGS)
def test_the_ring_check_accepts_every_ring_of_the_differential_test(p, s):
    # the digits are u's base-p digits, least significant first, and phi(u) = sum_i u_i phi(p^i) mod p
    params = RingParams(p, s)
    digits = digit_table(params)
    u = np.arange(p**s)
    assert digits.shape == (p**s, s) and not digits.flags.writeable
    assert np.array_equal(digits.astype(np.int64) @ p ** np.arange(s), u)
    units = np.stack([gray(p**i, params) for i in range(s)]).astype(np.int64)
    assert np.array_equal(digits.astype(np.int64) @ units % p, phi_table(params))


def broken_phi(p, s):
    """The phi table with one symbol of phi(p^(s-1)) changed off the decoded positions 0 and p^i: still
    injective and still decoded as before, but phi(2 p^(s-1)) != 2 phi(p^(s-1))."""
    table = _phi_table_cached.__wrapped__(p, s).copy()
    free = next(j for j in range(1, p ** (s - 1)) if j not in {p**i for i in range(s - 1)})
    table[p ** (s - 1), free] = (table[p ** (s - 1), free] + 1) % p
    table.flags.writeable = False
    return table


@pytest.mark.parametrize("p,s", IDENTITY_RINGS)
def test_the_decoded_positions_span_every_phi_column(p, s):
    # residues are decoded at positions 0 and p^i of each block; on small rings their columns have the rank of all
    pinned = [0, *(p**i for i in range(s - 1))]
    if p**s <= 729:
        table = phi_table(RingParams(p, s))
        assert naive_rank(table, p) == naive_rank(table[:, pinned], p) == s


def skewed_phi(p, s):
    """The phi table plus 1 at the first position off 0 and p^i wherever u mod p^(s-1) = 1: the order-p
    identity still holds, but that column is no combination of the columns at 0 and p^i."""
    table = _phi_table_cached.__wrapped__(p, s).copy()
    top = p ** (s - 1)
    free = next(j for j in range(1, top) if j not in {p**i for i in range(s - 1)})
    table[:, free] = (table[:, free] + (np.arange(p**s) % top == 1)) % p
    table.flags.writeable = False
    return table


def zero_moved_phi(p, s):
    """The phi table plus 1 at position 0 of every residue: phi(0) != 0, and 0 is found in no image."""
    table = _phi_table_cached.__wrapped__(p, s).copy()
    table[:, 0] = (table[:, 0] + 1) % p
    table.flags.writeable = False
    return table


def clear_ring_caches():
    for cached in (_phi_table_cached, digit_table):
        cached.cache_clear()


@pytest.fixture
def fresh_ring_caches():
    clear_ring_caches()
    yield
    clear_ring_caches()


BROKEN_IDENTITY_TYPES = [(3, (2, 1)), (3, (2, 0, 0)), (2, (2, 0, 0)), (2, (3, 0, 0)), (3, (1, 1, 0))]
BROKEN_RINGS = sorted({(p, len(ts)) for p, ts in BROKEN_IDENTITY_TYPES} | {(5, 2)})


@pytest.mark.parametrize("broken", [broken_phi, skewed_phi, zero_moved_phi])
@pytest.mark.parametrize("p,s", BROKEN_RINGS)
def test_the_ring_check_rejects_a_gray_map_off_the_digits(p, s, broken, monkeypatch, fresh_ring_caches):
    # each broken table is still decoded as before, but it is no injective linear map of the digits
    monkeypatch.setattr(gray_module, "_phi_table_cached", broken)
    with pytest.raises(GHCodeError, match=f"Gray map of Z_{p}\\^{s} ") as err:
        digit_table(RingParams(p, s))
    assert not isinstance(err.value, InputError)
    clear_ring_caches()
    monkeypatch.undo()
    assert digit_table(RingParams(p, s)).shape == (p**s, s)


@pytest.mark.parametrize("broken", [broken_phi, skewed_phi])
@pytest.mark.parametrize("p,ts", BROKEN_IDENTITY_TYPES)
def test_structural_pair_refuses_a_gray_map_off_the_digits(p, ts, broken, monkeypatch, fresh_ring_caches):
    monkeypatch.setattr(gray_module, "_phi_table_cached", broken)
    with pytest.raises(GHCodeError, match=f"Gray map of Z_{p}\\^{len(ts)} "):
        structural_pair(validate_type(p, ts))


@pytest.mark.parametrize("p,ts", BROKEN_IDENTITY_TYPES)
def test_an_image_without_the_zero_word_has_no_kernel(p, ts, monkeypatch, fresh_ring_caches):
    # the held image has no kernel; the structural path refuses the ring before it looks for one
    monkeypatch.setattr(gray_module, "_phi_table_cached", zero_moved_phi)
    code = AdditiveCode.build(validate_type(p, ts))
    with pytest.raises(InputError):
        held_pair(code)
    with pytest.raises(GHCodeError, match=f"Gray map of Z_{p}\\^{len(ts)} ") as err:
        structural_pair(code.sig)
    assert not isinstance(err.value, InputError)


@pytest.mark.parametrize("probes,coords", [(1, 1), (2, 0)])
def test_structural_kernel_checks_every_probe_survivor(probes, coords, monkeypatch):
    # with one or two probes on a few coordinates many non-kernel words of T survive the filter;
    # each one is checked against all of T
    types = [(2, (2, 0, 1)), (2, (3, 0, 0)), (3, (2, 1)), (3, (2, 0, 0)), (3, (3, 0)), (3, (1, 1, 0, 0)), (5, (2, 0))]
    codes = [AdditiveCode.build(validate_type(p, ts)) for p, ts in types]
    pairs = [held_pair(code) for code in codes]  # before the patch, which the held kernel's probes read too
    monkeypatch.setattr(invariants, "_PROBES", probes)
    monkeypatch.setattr(invariants, "_PROBE_COORDS", coords)
    spurious = 0
    for code, (r, k) in zip(codes, pairs):
        assert structural_pair(code.sig) == (r, k), code.sig.ts
        spurious += len(_probe_survivors(code, order_p_split(code)[1])) - code.sig.p ** (k - code.sig.num_rows)
    assert spurious > 0


PROBE_T_MAX = {2: 9, 3: 7, 5: 4}  # per p, the lengths p^t on which the probe rounds meet their oracle


@pytest.fixture
def locate_calls(monkeypatch):
    """(queries, locate step) of each ``RegeneratedDigits.locate`` call made while it is in use."""
    calls = []
    real = construction.RegeneratedDigits.locate

    def counted(self, rows):
        calls.append((len(rows), self.step))
        return real(self, rows)

    monkeypatch.setattr(construction.RegeneratedDigits, "locate", counted)
    return calls


@pytest.mark.parametrize("chunk_bytes", [None, 1], ids=["default-steps", "one-word-steps"])
@pytest.mark.parametrize("p", sorted(PROBE_T_MAX))
def test_probe_rounds_leave_the_survivors_of_one_probe_at_a_time(p, chunk_bytes, locate_calls, monkeypatch):
    # with _CHUNK_BYTES = 1 a locate step and a block of T hold one word, so each round applies one probe;
    # at any size no round sends more queries than one locate step
    if chunk_bytes is not None:
        monkeypatch.setattr(construction, "_CHUNK_BYTES", chunk_bytes)
    for ts in nonlinear_types(p, PROBE_T_MAX[p]):
        code = AdditiveCode.build(validate_type(p, ts))
        other = order_p_split(code)[1]
        want = probe_survivors_one_at_a_time(code, other)
        locate_calls.clear()
        got = _probe_survivors(code, other)
        assert got.dtype == want.dtype and np.array_equal(got, want), ts
        assert all(queries <= step for queries, step in locate_calls), ts
        if chunk_bytes == 1:
            assert all(queries == 1 for queries, _ in locate_calls), ts


def test_a_single_block_of_t_takes_at_most_two_probe_rounds(locate_calls):
    # on a chain representative (t_1 >= 2) the first round leaves little more than the kernel words, and the
    # second applies every probe left; a type with t_1 = 1 can keep many kernel words in T (81 of 3^7 at
    # (1,0,0,0,1,0)), and those take three
    single = 0
    for p, t_max in PROBE_T_MAX.items():
        for ts in (ts for ts in nonlinear_types(p, t_max) if ts[0] >= 2):
            code = AdditiveCode.build(validate_type(p, ts))
            sig, other = code.sig, order_p_split(code)[1]
            step = construction.RegeneratedDigits(code, invariants._spread(sig.n, invariants._PROBE_COORDS)).step
            locate_calls.clear()
            _probe_survivors(code, other)
            if p ** len(other) <= step:
                single += 1
                assert len(locate_calls) <= 2, (p, ts, locate_calls)
    assert single > 40


@pytest.mark.parametrize("p,ts", [(2, (3, 0, 1)), (3, (2, 0, 1)), (3, (1, 1, 1, 0)), (5, (2, 0)), (3, (1, 0, 0, 0, 2))])
def test_structural_pair_across_block_and_chunk_seams(p, ts, monkeypatch):
    code = AdditiveCode.build(validate_type(p, ts))
    want = held_pair(code)
    monkeypatch.setattr(construction, "_CHUNK_BYTES", 1)  # blocks of one word, and one-word locate steps
    monkeypatch.setattr(invariants, "_RANK_CHUNK_BYTES", 3 * code.sig.s * code.sig.n * 4)  # rank chunks of 3 words
    assert structural_pair(code.sig) == want


class FirstBlockSeen(Exception):
    pass


@pytest.mark.parametrize(
    "p,ts", [(2, (2, 0, 0, 0, 0, 0, 0, 0)), (3, (2, 0, 0, 0)), (3, (3, 0, 0, 0)), (3, (2, 0, 0, 0, 0, 0)), (5, (2, 1, 1))]
)
def test_structural_rank_chunks_are_no_smaller_than_the_held_ranks(p, ts, monkeypatch):
    # the first block of digit words of T that the structural rank absorbs has at least the rows of a
    # held-image rank chunk (_RANK_CHUNK_BYTES of float rows), or all of T where T is smaller; the
    # stream stops there
    code = AdditiveCode.build(validate_type(p, ts))
    a = code.sig
    width = a.s * a.n
    chunk = max(1, invariants._RANK_CHUNK_BYTES // (width * _float_dtype(p, width).itemsize))
    size = p ** (a.t + 1 - a.num_rows)
    seen = []
    real = invariants._digit_blocks

    def first_block(*args):
        for _, words in real(*args):
            seen.append(len(words))
            raise FirstBlockSeen

    monkeypatch.setattr(invariants, "_digit_blocks", first_block)
    with pytest.raises(FirstBlockSeen):
        structural_pair(code.sig)
    assert min(chunk, size) <= seen[0] <= size, (chunk, size, seen)


def bases_bytes(sig, r, k):
    """The larger of the two reduced bases of structural_pair, each held twice while it grows: rank's and
    the kernel's, both of digit words."""
    width = sig.s * sig.n
    return 2 * max(r, k) * width * _float_dtype(sig.p, width).itemsize


@pytest.mark.parametrize("p,t", [(3, 6), (3, 7), (2, 10), (5, 5)])
def test_structural_estimate_and_basis_budget_bound_the_peak(p, t, fresh_ring_caches):
    # built cold, each representative's pair fits a budget of structural_bytes plus its larger basis held
    # twice, and peaks within it; a budget one byte short of that basis is refused
    for rep in sorted({row.representative for row in census(t, p).rows if not row.linear}):
        sig = validate_type(p, rep)
        code = AdditiveCode.build(sig)
        r, k = held_pair(code)
        budget = structural_bytes(sig) + bases_bytes(sig, r, k)
        clear_ring_caches()
        tracemalloc.start()
        try:
            assert structural_pair(sig, budget) == (r, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (rep, peak, budget)
        with pytest.raises(CapacityError):
            structural_pair(sig, budget - 1)
        with pytest.raises(CapacityError):
            structural_pair(sig, structural_bytes(sig) - 1)


def test_structural_pair_bounds_the_p2_t15_basis():
    # the held-image estimate counted 26.0 MiB for a 46.5 MiB peak here (rank 178 at length 2^15)
    sig = validate_type(2, (2, 0, 0, 0, 0, 0, 0, 0))
    budget = structural_bytes(sig) + bases_bytes(sig, 178, 3)
    tracemalloc.start()
    try:
        assert structural_pair(sig, budget) == (178, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)


def test_structural_invariants_leave_numpy_ma_unimported():
    # the first np.unique or np.setdiff1d of a process imports numpy.ma (about 12 ms); the structural kernel's
    # probe indices, coordinate sample and restricted lookup use none, so a fresh command never pays for it
    script = (
        "import sys\n"
        "from ghcodes import cli\n"
        "assert cli.main(['invariants', '--p', '3', '--type', '2,1']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    src = str(Path(invariants.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "r=6 k=3 linear=false"
