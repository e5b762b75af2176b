"""Generator matrices, code materialization and the Hadamard checks."""

import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes import construction
from ghcodes.classification import enumerate_types, is_linear_type
from ghcodes.construction import (
    _CHUNK_BYTES,
    DEFAULT_BUDGET_BYTES,
    AdditiveCode,
    GrayCode,
    OdometerSpan,
    RegeneratedDigits,
    build_bytes,
    build_gray_code,
    generator_matrix,
    gray_bytes,
    is_gh_code,
    materialization_bytes,
    materialize_additive,
    materialize_gray,
    min_distance,
    order_p_split,
    phi_bytes,
    validate_type,
)
from ghcodes.construction import _bit_planes, _digit_blocks, _gray_blocks, _mod_p_diff, _odometer_blocks, _odometer_digits
from ghcodes.construction import _pair_counts, _plane_counts, _sampled_scan
from ghcodes.invariants import _PROBE_COORDS, _float_dtype, _rank_words
from ghcodes.errors import CapacityError, InputError
from ghcodes.gray import _phi_table_cached, phi_table
from ghcodes.ring import RingParams

import product_oracle
from sorted_key_code import set_equal
from streamed_set_check import gray_chunks


def sig(p, ts):
    return validate_type(p, ts)


# ---------------------------------------------------------------------------
# types and generator matrices
# ---------------------------------------------------------------------------


def test_validate_type_errors():
    with pytest.raises(InputError):
        validate_type(3, ())
    with pytest.raises(InputError):
        validate_type(3, (0, 1))
    with pytest.raises(InputError):
        validate_type(3, (1, -1))
    with pytest.raises(InputError):
        validate_type(4, (1, 1))  # p must be prime


def test_signature_arithmetic():
    a = sig(3, (2, 1))
    assert (a.p, a.s, a.t, a.n) == (3, 2, 4, 27)
    assert a.size == 3**5
    assert a.gray_length == 3**4
    assert a.num_rows == 3
    assert a.label() == "2,1"

    b = sig(3, (1, 1, 0))
    assert (b.p, b.s, b.t, b.n) == (3, 3, 4, 9)
    assert b.size == 3**5
    assert b.gray_length == 3**4


def test_generator_matrix_2_1():
    got = generator_matrix(sig(3, (2, 1)))
    want = np.vstack(
        [
            np.ones(27, dtype=np.int64),
            np.tile(np.arange(9), 3),
            np.repeat([0, 3, 6], 9),
        ]
    )
    assert np.array_equal(got, want)


def test_generator_matrix_1_1_0():
    got = generator_matrix(sig(3, (1, 1, 0)))
    want = np.vstack(
        [
            np.ones(9, dtype=np.int64),
            np.arange(0, 27, 3),
        ]
    )
    assert np.array_equal(got, want)


def row_orders(a):
    """The additive order of each generator row, by the closed form the construction uses."""
    return tuple(a.p ** construction._sigmas(a))


def test_row_orders():
    assert row_orders(sig(3, (2, 1))) == (9, 9, 3)
    assert row_orders(sig(3, (1, 1, 0))) == (27, 9)
    assert row_orders(sig(2, (3, 2))) == (4, 4, 4, 2, 2)


def test_p_basis_1_1_0():
    basis = AdditiveCode.build(sig(3, (1, 1, 0))).basis.tolist()
    assert basis == [
        [1] * 9,
        [3] * 9,
        [9] * 9,
        list(range(0, 27, 3)),
        [0, 9, 18, 0, 9, 18, 0, 9, 18],
    ]


def test_p_basis_counts_match_t_plus_one():
    for a in [sig(3, (2, 1)), sig(3, (1, 1, 0)), sig(2, (3, 2)), sig(5, (1, 1))]:
        assert AdditiveCode.build(a).basis.shape == (a.t + 1, a.n)


ORACLE_TYPES = [
    (p, ts)
    for p, t_max in [(2, 12), (3, 8), (5, 6), (7, 5)]
    for t in range(1, t_max + 1)
    for s in range(1, t + 2)
    for ts in enumerate_types(t, s)
]


def test_the_row_schedule_matches_the_product_construction():
    # the closed form against the step-by-step product construction on 537 types: generator (values and
    # dtype), p-basis, row orders, top-row mask and decode plan
    assert len(ORACLE_TYPES) == 537
    for p, ts in ORACLE_TYPES:
        a = sig(p, ts)
        code = AdditiveCode.build(a)
        assert row_orders(a) == product_oracle.row_orders(a), ts
        pairs = [
            (code.generator, product_oracle.generator(a)),
            (code.basis, product_oracle.basis(a)),
            (construction._top_rows(a), product_oracle.top_rows(a)),
            *zip(construction._decode_plan(a), product_oracle.decode_plan(a)),
        ]
        for got, want in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want), ts


def test_a_build_makes_its_generator_once(monkeypatch):
    calls = []
    real = construction.generator_matrix
    monkeypatch.setattr(construction, "generator_matrix", lambda a: calls.append(a) or real(a))
    AdditiveCode.build(sig(3, (2, 1, 1)))
    assert len(calls) == 1


def test_p_basis_is_exact_near_the_word_limit():
    # over Z_{3^39} the row of order 9 holds 8 * 3^37, and 3 times that is over 2^63: the product wrapped
    # in int64 before its reduction, where the row reduced mod 3^38 first stays below 3^39
    a = sig(3, (1,) + (0,) * 36 + (1, 0))
    code = AdditiveCode.build(a)
    modulus, rows = a.params.modulus, code.generator.tolist()
    want = [[v * a.p**q % modulus for v in row] for row, sigma in zip(rows, construction._sigmas(a)) for q in range(sigma)]
    assert code.basis.tolist() == want


@pytest.mark.parametrize(
    "p,ts",
    [
        (3, (11,)),  # s = 1: every row is its own basis row, and the generator is as many rows as the basis
        (2, (16,)),
        (3, (2, 0, 0, 0, 0, 0)),  # uint16 residues, t + 1 = 12 basis rows from 2 generator rows
        (2, (2, 0, 0, 0, 0, 0, 0, 0, 0)),
        (5, (2, 1, 1)),
        (3, (2, 8)),
        (7, (2, 2)),
    ],
)
def test_build_estimate_bounds_the_build_within_four_times(p, ts):
    a = sig(p, ts)
    AdditiveCode.build(a)
    tracemalloc.start()
    try:
        AdditiveCode.build(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= build_bytes(a) <= 4 * peak, (peak, build_bytes(a))


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def rows_as_set(arr):
    return {tuple(int(v) for v in row) for row in arr}


def module_size(rows: np.ndarray, params: RingParams) -> int:
    """Cardinality of the Z_{p^s}-span of the given rows (the oracle of the span).

    Plain echelonization over the chain ring: repeatedly pick the entry of
    minimal p-valuation, normalize its row by a unit, clear its column.
    """
    p, s = params.p, params.s
    modulus = params.modulus
    work = [row.astype(np.int64) % modulus for row in rows]
    pivot_vals: list[int] = []
    cols_done: set[int] = set()
    while True:
        best = None
        for ri, row in enumerate(work):
            for ci in np.flatnonzero(row):
                if ci in cols_done:
                    continue
                v = 0
                e = int(row[ci])
                while e % p == 0:
                    e //= p
                    v += 1
                if best is None or v < best[0]:
                    best = (v, ri, int(ci))
        if best is None:
            break
        v, ri, ci = best
        row = work.pop(ri)
        unit = int(row[ci]) // p**v
        row = row * pow(unit, -1, modulus) % modulus  # pivot becomes p^v
        for rj, other in enumerate(work):
            if other[ci]:
                factor = int(other[ci]) // p**v
                work[rj] = (other - factor * row) % modulus
        pivot_vals.append(v)
        cols_done.add(ci)
    return p ** sum(s - v for v in pivot_vals)


def small_types(max_words):
    """(p, ts) of every type of at most max_words words for p = 2, 3, 5."""
    out = []
    for p in (2, 3, 5):
        t = 0
        while p ** (t + 1) <= max_words:
            for s in range(1, t + 2):
                out.extend((p, ts) for ts in enumerate_types(t, s))
            t += 1
    return out


# the first four keep their ids; the rest are every other type of at most 3^7 words
SPAN_CASES = [(3, (2, 1)), (3, (1, 1, 0)), (2, (2, 1)), (5, (1, 0))]
SPAN_CASES += [case for case in small_types(3**7) if case not in SPAN_CASES]


@pytest.mark.parametrize("p,ts", SPAN_CASES)
def test_module_size_is_p_to_t_plus_one(p, ts):
    a = sig(p, ts)
    gen = generator_matrix(a).astype(np.int64)
    assert module_size(gen, a.params) == a.size


def span_oracle(a, rows, idx):
    """Word m of the odometer span of ``rows``: the base-p digits of m, lowest first, times the rows, mod p^s."""
    return _odometer_digits(a.p, idx, len(rows)) @ rows.astype(np.int64) % a.params.modulus


@pytest.mark.parametrize(
    "p,ts",
    [
        (2, (2, 1)),
        (2, (1, 1, 0)),
        (3, (1, 1)),
        (3, (2, 0)),
        (3, (3, 1)),
        (5, (1, 1)),
        (2, (1, 0, 0, 0, 0, 0, 0, 1)),  # modulus 256 in uint8
        (2, (1, 0, 0, 0, 0, 0, 0, 0, 1)),  # modulus 512 in uint16
        (3, (1, 0, 0, 0, 2)),  # modulus 243: a sum overflows uint8
    ],
)
@pytest.mark.parametrize("chunk_bytes", [1, 1000, 2**40], ids=["one-row", "not-a-power", "one-chunk"])
def test_odometer_blocks_match_oracle(monkeypatch, p, ts, chunk_bytes):
    code = AdditiveCode.build(sig(p, ts))
    a = code.sig
    want = span_oracle(a, code.basis, np.arange(a.size))
    monkeypatch.setattr(construction, "_CHUNK_BYTES", chunk_bytes)
    blocks = [(start, block.copy()) for start, block in _odometer_blocks(code)]
    assert [start for start, _ in blocks] == np.cumsum([0] + [len(b) for _, b in blocks[:-1]]).tolist()
    assert np.array_equal(np.vstack([block for _, block in blocks]), want)
    if chunk_bytes == 1:
        assert len(blocks) == a.size
    if chunk_bytes == 2**40:
        assert len(blocks) == 1

    dense = materialize_additive(code)
    assert dense.dtype == a.params.dtype() and np.array_equal(dense, want)
    gray_want = phi_table(a.params)[want].reshape(a.size, a.gray_length)
    assert np.array_equal(materialize_gray(code).words, gray_want)
    chunks = list(gray_chunks(code))
    assert [start for start, _ in chunks] == [start for start, _ in blocks]
    assert np.array_equal(np.vstack([words for _, words in chunks]), gray_want)

    # the span of no row, of one row, of an odd and of every basis row: words at any indices, and blocks of
    # one word, of some words or of all (more than the low table holds) against the oracle
    for k in sorted({0, 1, 3, a.t + 1}):
        rows = code.basis[:k]
        span = OdometerSpan(a, rows)
        idx = np.arange(p**k)
        words = span.words(idx[::-1])
        assert words.dtype == construction._sum_dtype(a) and np.array_equal(words, span_oracle(a, rows, idx[::-1]))
        w = construction._block_words(p, k, a.n)
        blocks = [(start, block.copy()) for start, block in span.blocks(w)]
        assert [start for start, _ in blocks] == list(range(0, p**k, len(blocks[0][1])))
        assert np.array_equal(np.vstack([block for _, block in blocks]), span_oracle(a, rows, idx))
        if chunk_bytes == 2**40:
            assert len(blocks) == 1 and (k < 2 or len(blocks[0][1]) > span.split)


def test_digit_streams_of_a_wide_ring_carry_many_words_a_block():
    # at p = 3, s = 6 one Gray word of (2,0,0,0,0,0) is 729 x 243 symbols and fills a 256 KiB block alone,
    # but its digit word takes 8 bytes a coordinate (the np.take index of its residues), so a lookup step
    # and the digit blocks streamed through it hold 27 words
    code = AdditiveCode.build(sig(3, (2, 0, 0, 0, 0, 0)))
    a = code.sig
    other = order_p_split(code)[1]
    assert len(next(_gray_blocks(a, other))[1]) == 1
    step = RegeneratedDigits(code).step
    assert step == 27
    start, words = next(_digit_blocks(OdometerSpan(a, other), step))
    assert (start, words.shape) == (0, (27, a.s * a.n))


def test_lookup_estimate_bounds_building_its_span():
    # the lower member of the t = 10 chain pair: filling the high span table beside the low one makes an
    # _add_mod temporary of the rows filled last (1.6 MB beside 19.1 MB of tables), which lookup_bytes counts
    a = sig(3, (3, 5))
    code = AdditiveCode.build(a)
    tracemalloc.start()
    try:
        RegeneratedDigits(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RegeneratedDigits.lookup_bytes(a), peak


@pytest.mark.parametrize(
    "p,ts",
    [
        (2, (2, 1)),
        (2, (1, 0, 0, 0, 0, 0, 0, 1)),  # s = 8: Gray words take 128 bytes a coordinate, digit words 8
        (3, (2, 0, 1)),
        (3, (1, 0, 0, 0, 2)),
        (3, (2, 0, 0, 0, 0)),
        (3, (2, 0, 0, 0, 0, 0)),
        (5, (1, 1)),
        (5, (2, 1, 1)),
    ],
)
def test_every_stream_block_fits_its_byte_rule(p, ts):
    # each stream's blocks are the largest power of p whose words fit its consumer's bytes (one word if
    # none fits, all the span's if they all fit); rank chunks are the smallest power of p whose float rows
    # reach _RANK_CHUNK_BYTES
    code = AdditiveCode.build(sig(p, ts))
    a = code.sig
    other = order_p_split(code)[1]

    def largest_fitting(blocks, rows, word_bytes):
        words = len(next(blocks)[1])
        assert words * word_bytes <= _CHUNK_BYTES or words == 1
        assert words * p * word_bytes > _CHUNK_BYTES or words == p**rows

    largest_fitting(_odometer_blocks(code), a.t + 1, max(8 * a.n, a.gray_length))
    largest_fitting(_gray_blocks(a, other), len(other), max(8 * a.n, a.gray_length))
    lookup = RegeneratedDigits(code)
    largest_fitting(_digit_blocks(OdometerSpan(a, other), lookup.step), len(other), a.n * max(8, a.s))
    sample = np.unique(np.linspace(0, a.n - 1, num=min(_PROBE_COORDS, a.n), dtype=np.int64))
    restricted = RegeneratedDigits(code, sample)
    restricted_bytes = len(restricted.coords) * max(8, a.s)
    span = OdometerSpan(a, other[:, restricted.coords])
    largest_fitting(_digit_blocks(span, restricted.step), len(other), restricted_bytes)

    width = a.s * a.n
    chunk = max(1, construction._RANK_CHUNK_BYTES // (width * _float_dtype(p, width).itemsize))
    words = len(next(_digit_blocks(OdometerSpan(a, other), _rank_words(a)))[1])
    assert words >= chunk or words == p ** len(other)
    assert words == 1 or words // p < chunk


def test_gray_code_shape_and_distinctness():
    gc = build_gray_code(sig(3, (2, 0)))
    assert isinstance(gc, GrayCode)
    assert gc.length == 27
    assert len(gc) == 81
    assert len(rows_as_set(gc.words)) == 81


def test_gray_words_match_componentwise_map():
    from ghcodes.gray import gray_matrix

    a = sig(3, (1, 1))
    code = AdditiveCode.build(a)
    dense = materialize_additive(code)
    gc = materialize_gray(code)
    assert np.array_equal(gc.words, gray_matrix(a.params, dense))


def test_membership_queries():
    gc = build_gray_code(sig(3, (1, 1)))
    row = gc.words[5].copy()
    assert gc.contains_row(row)
    row[0] = (row[0] + 1) % 3
    assert not gc.contains_row(row)
    mixed = np.vstack([gc.words[3], row])
    assert gc.contains_rows(mixed).tolist() == [True, False]


def test_set_equal_ignores_order():
    gc = build_gray_code(sig(2, (2, 1)))
    shuffled = gc.words[::-1].copy()
    assert set_equal(gc, shuffled)
    tweaked = gc.words.copy()
    tweaked[0, 0] ^= 1
    assert not set_equal(gc, tweaked)


def test_set_equal_rejects_repeated_rows():
    gc = build_gray_code(sig(3, (1, 1)))
    assert not set_equal(gc, np.repeat(gc.words[:1], len(gc), axis=0))
    copied = gc.words.copy()
    copied[4] = copied[9]  # every row is still a codeword, word 4 is gone
    assert not set_equal(gc, copied)


def test_capacity_errors_carry_sizes():
    a = sig(3, (2, 2))
    with pytest.raises(CapacityError) as exc:
        build_gray_code(a, budget_bytes=128)
    assert exc.value.budget_bytes == 128
    assert exc.value.required_bytes > 128


@pytest.mark.parametrize("p,t_max", [(2, 15), (3, 10), (5, 6), (7, 5)])
def test_estimate_is_the_image_its_phi_table_and_one_working_set(p, t_max):
    # no margin that grows with the image: what the stages reading it add stays under 32 MiB
    for t in range(1, t_max + 1):
        for s in range(1, t + 2):
            for ts in enumerate_types(t, s):
                a = sig(p, ts)
                held = gray_bytes(a) + phi_bytes(a.params)
                assert held < materialization_bytes(a) <= held + 32 * 2**20, ts


@pytest.mark.parametrize("p,t,fits", [(3, 9, True), (5, 6, True), (7, 5, True), (2, 15, True), (3, 10, False)])
def test_default_budget_holds_one_image_up_to_a_gib(p, t, fits):
    # every nonlinear type, which a census may build: a p = 3, t = 9 image is 1.08 GiB, a t = 10 one 9.7 GiB
    for s in range(2, t + 2):
        for ts in enumerate_types(t, s):
            if not is_linear_type(p, ts):
                assert (materialization_bytes(sig(p, ts)) <= DEFAULT_BUDGET_BYTES) == fits, ts


# ---------------------------------------------------------------------------
# Hadamard difference property and distances
# ---------------------------------------------------------------------------


def naive_gh_scan(words, p):
    """Pair-by-pair reference scan: (pairs examined, first failing pair or None).

    A difference passes when it is a nonzero constant or balanced; pairs
    are scanned in lexicographic (u, v) order, a whole row u at a time.
    """
    m, n = words.shape
    lam = n // p
    a = words.astype(np.int64)
    checked = 0
    for u in range(m):
        d = (a[u + 1 :] - a[u]) % p
        counts = np.stack([(d == v).sum(axis=1) for v in range(p)], axis=1)
        constant = (counts[:, 1:] == n).any(axis=1)
        balanced = (counts == lam).all(axis=1)
        checked += len(d)
        bad = np.flatnonzero(~(constant | balanced))
        if bad.size:
            return checked, (u, u + 1 + int(bad[0]))
    return checked, None


def naive_is_gh(words, p):
    return naive_gh_scan(words, p)[1] is None


def naive_sampled_scan(words, p, pairs, seed):
    """Reference for the sampled mode: the same draws (8192 per call, pairs u == v dropped),
    checked in int64 arithmetic; (pairs examined, first failing pair or None)."""
    m, n = words.shape
    rng = np.random.default_rng(seed)
    checked, remaining = 0, pairs
    while remaining > 0:
        k = min(8192, remaining)
        u, v = rng.integers(0, m, size=k), rng.integers(0, m, size=k)
        u, v = u[u != v], v[u != v]
        checked += u.size
        remaining -= u.size
        d = (words[u].astype(np.int64) - words[v]) % p
        counts = np.stack([(d == s).sum(axis=1) for s in range(p)])
        bad = np.flatnonzero(~((counts[1:] == n).any(axis=0) | (counts == n // p).all(axis=0)))
        if bad.size:
            return checked, (int(u[bad[0]]), int(v[bad[0]]))
    return checked, None


def naive_min_distance(words):
    best = words.shape[1]
    for i in range(words.shape[0]):
        d = (words[i + 1 :] != words[i]).sum(axis=1)
        if d.size:
            best = min(best, int(d.min()))
    return best


@pytest.mark.parametrize("p,ts", [(3, (1, 1)), (3, (2, 0)), (2, (2, 1)), (2, (1, 1, 0)), (5, (1, 0))])
def test_gray_images_satisfy_difference_property(p, ts):
    gc = build_gray_code(sig(p, ts))
    assert naive_is_gh(gc.words, p)
    verdict = is_gh_code(gc, mode="exhaustive")
    assert verdict.passed
    assert verdict.mode == "exhaustive"
    assert bool(verdict)


def test_corrupted_code_fails_check():
    gc = build_gray_code(sig(3, (1, 1)))
    bad = gc.words.copy()
    bad[7, 0] = (bad[7, 0] + 1) % 3
    broken = GrayCode(gc.sig, bad)
    assert not naive_is_gh(bad, 3)
    verdict = is_gh_code(broken, mode="exhaustive")
    assert not verdict.passed
    assert verdict.reason


def test_repeated_word_fails_check():
    gc = build_gray_code(sig(3, (1, 1)))
    bad = gc.words.copy()
    bad[7] = bad[8]  # a zero difference is constant, but not a nonzero constant
    broken = GrayCode(gc.sig, bad)
    assert not naive_is_gh(bad, 3)
    verdict = is_gh_code(broken, mode="exhaustive")
    assert not verdict.passed
    assert verdict.reason.startswith("pair (7, 8) ")
    assert not is_gh_code(broken, mode="sampled", pairs=5000, seed=1).passed
    assert min_distance(broken) == 0


def test_sampled_mode_is_deterministic():
    gc = build_gray_code(sig(3, (2, 0)))
    a = is_gh_code(gc, mode="sampled", pairs=2000, seed=99)
    b = is_gh_code(gc, mode="sampled", pairs=2000, seed=99)
    assert a.passed and b.passed
    assert a.pairs_checked == b.pairs_checked == 2000


def test_auto_mode_picks_exhaustive_for_small_codes():
    gc = build_gray_code(sig(3, (1, 1)))
    assert is_gh_code(gc).mode == "exhaustive"


@pytest.mark.parametrize(
    "ts, mode, reported",
    [((1, 1), "exhaustive", "exhaustive"), ((1, 1), "sampled", "sampled"), ((3, 1), "auto", "sampled")],
)
def test_malformed_code_reports_the_mode_it_ran(ts, mode, reported):
    gc = build_gray_code(sig(3, ts))
    m, n = gc.words.shape
    cases = [
        (gc.words[:-1], f"expected {m} words, found {m - 1}"),
        (gc.words[:, :-1], f"length {n - 1} not divisible by p"),
    ]
    for words, reason in cases:
        verdict = is_gh_code(GrayCode(gc.sig, words), mode=mode, pairs=100)
        assert (verdict.passed, verdict.mode, verdict.pairs_checked, verdict.reason) == (False, reported, 0, reason)


@pytest.mark.parametrize("p,ts", [(3, (1, 1)), (3, (2, 0)), (2, (2, 1)), (5, (1, 0))])
def test_min_distance_golden(p, ts):
    gc = build_gray_code(sig(p, ts))
    d = min_distance(gc)
    assert d == naive_min_distance(gc.words)
    assert d == p ** (gc.sig.t - 1) * (p - 1)


# every code of at most 3^5 words for p = 2, 3, 5
GH_TYPES = [
    (p, ts)
    for p, t_max in ((2, 6), (3, 4), (5, 2))
    for t in range(1, t_max + 1)
    for s in range(1, t + 2)
    for ts in enumerate_types(t, s)
]


@lru_cache(maxsize=None)
def gh_code(p, ts):
    return build_gray_code(sig(p, ts))


ALTERATIONS = ["genuine", "permuted", "corrupted", "repeated", "copied", "swapped"]
# the alterations that keep the translate structure of a Gray image, on which the exhaustive scans take
# only the rows of the transversal T against all rows
TRANSLATE_STRUCTURED = ("genuine", "permuted", "copied")


@st.composite
def gh_inputs(draw):
    """A small Gray image, altered by one of ``ALTERATIONS`` (see ``altered``)."""
    p, ts = draw(st.sampled_from(GH_TYPES))
    gc = gh_code(p, ts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(ALTERATIONS))
    return GrayCode(gc.sig, altered(gc.words.copy(), p, how, rng)), how


def altered(words, p, how, rng):
    """``words`` as is, column-permuted, with one symbol changed, with a row repeated, with a column
    overwritten by a copy of another ("copied": each word's relations to the others hold column by column,
    so the translate structure stays, but differences lose their balance) or with row 0 swapped with
    another ("swapped": the same set of words, out of odometer order, so the structure, whose row 0 is
    the zero word, is lost)."""
    m, n = words.shape
    if how == "permuted":
        words = words[:, rng.permutation(n)]
    elif how == "corrupted":
        r, c = rng.integers(0, m), rng.integers(0, n)
        words[r, c] = (words[r, c] + rng.integers(1, p)) % p
    elif how == "repeated":
        r, q = rng.choice(m, size=2, replace=False)
        words[r] = words[q]
    elif how == "copied":
        c, d = rng.choice(n, size=2, replace=False)
        words[:, c] = words[:, d]
    elif how == "swapped":
        r = rng.integers(1, m)
        words[[0, r]] = words[[r, 0]]
    return words


@settings(max_examples=60, deadline=None)
@given(gh_inputs(), st.sampled_from([0, 2**10, 2**13]))
def test_exhaustive_check_and_distance_match_oracle(case, block_bytes):
    gc, how = case
    m = len(gc)
    with mock.patch.object(construction, "_PAIR_BLOCK_BYTES", block_bytes or construction._PAIR_BLOCK_BYTES):
        verdict = is_gh_code(gc, mode="exhaustive")
        distance = min_distance(gc)
    checked, first_bad = naive_gh_scan(gc.words, gc.sig.p)
    assert verdict.passed == (first_bad is None)
    assert verdict.pairs_checked == checked
    if first_bad is None:
        assert checked == m * (m - 1) // 2 and not verdict.reason
        assert verdict._distance == distance  # the completed pass counted every N_0
    else:
        assert verdict.reason.startswith("pair ({}, {}) is ".format(*first_bad))
        assert verdict._distance is None
    assert distance == naive_min_distance(gc.words)
    if how in ("genuine", "permuted", "swapped"):
        assert verdict.passed
        assert distance == gc.sig.p ** (gc.sig.t - 1) * (gc.sig.p - 1)


@settings(max_examples=40, deadline=None)
@given(gh_inputs(), st.sampled_from([0, 2**10, 2**13]))
def test_exhaustive_scans_take_the_transversal_rows_on_a_translate_structured_image(case, block_bytes):
    # the reduced scans run T's rows, the odometer rows whose top digits are 0, against every row,
    # and a GH pass still reports every pair checked
    gc, how = case
    sig = gc.sig
    real, scanned = construction._pair_counts, []

    def spy(words, p, syms, left=None):
        scanned.append(left)
        return real(words, p, syms, left)

    with mock.patch.object(construction, "_PAIR_BLOCK_BYTES", block_bytes or construction._PAIR_BLOCK_BYTES):
        left = construction._transversal_rows(gc)
        with mock.patch.object(construction, "_pair_counts", spy):
            verdict = is_gh_code(gc, mode="exhaustive")
            min_distance(gc)
    if how not in TRANSLATE_STRUCTURED:
        assert left is None and scanned == [None, None]
        return
    top = construction._top_rows(sig)
    want = [m for m in range(sig.size) if not (_odometer_digits(sig.p, np.array([m]), sig.t + 1)[0] * top).any()]
    assert left.tolist() == want and len(want) == sig.p ** (sig.t + 1 - sum(sig.ts))
    # a failing reduced scan is followed by the scan of all pairs, which reports the first failing pair
    assert [x is None for x in scanned] == [False, False] if verdict.passed else [False, True, False]
    if verdict.passed:
        assert verdict.pairs_checked == sig.size * (sig.size - 1) // 2


@settings(max_examples=30, deadline=None)
@given(gh_inputs(), st.integers(1, 3 * 8192), st.integers(0, 2**16), st.sampled_from([0, 1, 2**8, 2**12]))
def test_sampled_check_matches_oracle(case, pairs, seed, gather_bytes):
    gc, _ = case
    with mock.patch.object(construction, "_GATHER_BYTES", gather_bytes or construction._GATHER_BYTES):
        verdict = is_gh_code(gc, mode="sampled", pairs=pairs, seed=seed)
    checked, first_bad = naive_sampled_scan(gc.words, gc.sig.p, pairs, seed)
    assert verdict.passed == (first_bad is None)
    assert verdict.pairs_checked == checked
    if first_bad is not None:
        assert verdict.reason.startswith("pair ({}, {}) is ".format(*first_bad))


# a small Gray image for each prime, tiled along its coordinates to a length that is a multiple of 64 and
# to a ragged one past 64: a difference balanced or a nonzero constant on each copy is so on all;
# at p = 251 (b = 8 planes) the words are shifts of one random word, every difference a constant
PLANE_BASES = {2: (2, 2), 3: (1, 1), 5: (2,), 7: (2,), 11: (2,), 251: None}


def plane_words(p, length):
    """Words over Z_p of n < 64 symbols ("short"), n a multiple of 64 ("aligned") or a ragged n past 64."""
    if p == 251:
        base = np.random.default_rng(p).integers(0, p, size={"short": 7, "aligned": 64, "ragged": 100}[length])
        return ((base + np.arange(40)[:, None]) % p).astype(np.uint8)
    words = gh_code(p, PLANE_BASES[p]).words
    n = words.shape[1]
    return np.tile(words, {"short": 1, "aligned": 64 // math.gcd(n, 64), "ragged": 64 // n + 1}[length])


@pytest.mark.parametrize("length", ["short", "aligned", "ragged"])
@pytest.mark.parametrize("p", sorted(PLANE_BASES))
def test_plane_counts_are_the_symbol_counts_of_every_difference(p, length):
    # random words, so every d < p - 1 occurs; row 1 repeats row 0 and row 2 is row 0 plus 1
    n = plane_words(p, length).shape[1]
    words = np.random.default_rng(n).integers(0, p, size=(40, n)).astype(np.uint8)
    words[1], words[2] = words[0], (words[0] + 1) % p
    planes = _bit_planes(p, 40, n, [(0, words)])
    b, lanes, _ = planes.shape
    assert planes.shape == (max(1, math.ceil(math.log2(p))), -(-n // 64), 40)
    u, v = (w.ravel() for w in np.meshgrid(np.arange(40), np.arange(40)))
    counts = np.empty((p - 1, len(u)), dtype=np.min_scalar_type(n))
    work = np.empty((b + 1, lanes, len(u)), dtype=np.uint64)
    _plane_counts(planes[:, :, u], planes[:, :, v], p, work, np.empty((lanes, len(u)), dtype=np.uint8), counts)
    counts[0] -= 64 * lanes - n  # the padding bits, all differences 0
    diff = (words[u].astype(np.int64) - words[v]) % p
    assert np.array_equal(counts, (diff[None] == np.arange(p - 1)[:, None, None]).sum(axis=2))


@pytest.mark.parametrize("gather_bytes", [1, 2**8, None])
@pytest.mark.parametrize("how", ["genuine", "permuted", "corrupted", "repeated"])
@pytest.mark.parametrize("length", ["short", "aligned", "ragged"])
@pytest.mark.parametrize("p", sorted(PLANE_BASES))
def test_plane_scan_matches_the_sampled_oracle(p, length, how, gather_bytes):
    words = altered(plane_words(p, length).copy(), p, how, np.random.default_rng([p, len(how)]))
    m, n = words.shape
    # two draws at the default gather below p = 128; p - 1 counts a step cost 250 ANDs and popcounts at p = 251
    pairs = (300 if gather_bytes == 1 else 2500 if gather_bytes else 9000) // (4 if p > 127 else 1)
    with mock.patch.object(construction, "_GATHER_BYTES", gather_bytes or construction._GATHER_BYTES):
        planes = _bit_planes(p, m, n, [(0, words[:7]), (7, words[7:])])  # a seam, and a larger second block
        checked, bad = _sampled_scan(planes, n, p, pairs, seed=p)
    want_checked, want_bad = naive_sampled_scan(words, p, pairs, p)
    assert checked == want_checked
    if want_bad is None:
        assert bad is None
    else:
        assert bad == (*want_bad, np.array_equal(words[want_bad[0]], words[want_bad[1]]))
    if how in ("genuine", "permuted"):
        assert bad is None


@pytest.mark.parametrize("p,ts", [(2, (2, 2)), (2, (1, 0, 0, 0, 0, 0, 1)), (3, (2, 1)), (3, (3, 1)), (5, (2, 1)), (7, (3,)), (11, (2,))])
def test_streamed_planes_are_the_planes_of_the_held_image(p, ts):
    # the planes of the p-basis span's Gray blocks are those of the image's rows, and so are the verdicts
    a = sig(p, ts)
    code = AdditiveCode.build(a)
    gc = materialize_gray(code)
    held = _bit_planes(p, a.size, a.gray_length, [(0, gc.words)])
    assert np.array_equal(_bit_planes(p, a.size, a.gray_length, _gray_blocks(a, code.basis)), held)
    for mode in ("sampled", "exhaustive") if a.size <= 3**6 else ("sampled",):
        assert is_gh_code(code, mode=mode, pairs=3000, seed=5) == is_gh_code(gc, mode=mode, pairs=3000, seed=5)


@settings(max_examples=40, deadline=None)
@given(gh_inputs(), st.integers(1, 4 * 40), st.integers(1, 4))
def test_pair_counts_exact_across_block_and_chunk_seams(case, units, syms):
    gc, _ = case
    p = gc.sig.p
    syms = min(syms, p)
    a = gc.words.astype(np.int64)
    u0_next = 0
    # a budget of 4 * m * units bytes gives blocks of units // syms rows (at most max(64, ceil(m/4))) and
    # chunks of units // (p - 1) columns
    with mock.patch.object(construction, "_PAIR_BLOCK_BYTES", 4 * len(a) * units):
        for u0, counts in _pair_counts(gc.words, p, syms):
            assert u0 == u0_next and counts.shape[::2] == (syms, len(a) - u0)
            u0_next += counts.shape[1]
            for i in range(counts.shape[1]):
                diff = (a[u0 + i] - a[u0:]) % p
                for d in range(syms):
                    want = (diff == d).sum(axis=1)
                    want[: i + 1] = 0  # v = u0 + j <= u is no pair of the scan
                    assert np.array_equal(counts[d, i], want)
    assert u0_next == len(a)


@settings(max_examples=40, deadline=None)
@given(gh_inputs(), st.integers(1, 4 * 40), st.integers(1, 4), st.randoms(use_true_random=False))
def test_pair_counts_of_left_rows_exact_across_block_and_chunk_seams(case, units, syms, random):
    # given left rows, each block of them is counted against every row, and only the self-pairs are 0
    gc, _ = case
    p = gc.sig.p
    syms = min(syms, p)
    a = gc.words.astype(np.int64)
    left = np.array(sorted(random.sample(range(len(a)), random.randint(1, len(a)))))
    u0_next = 0
    with mock.patch.object(construction, "_PAIR_BLOCK_BYTES", 4 * len(a) * units):
        for u0, counts in _pair_counts(gc.words, p, syms, left):
            assert u0 == u0_next and counts.shape[::2] == (syms, len(a))
            assert counts.shape[1] <= construction._LEFT_BLOCK_ROWS
            u0_next += counts.shape[1]
            for i in range(counts.shape[1]):
                diff = (a[left[u0 + i]] - a) % p
                want = (diff[None] == np.arange(syms)[:, None, None]).sum(axis=2)
                want[:, left[u0 + i]] = 0
                assert np.array_equal(counts[:, i], want)
    assert u0_next == len(left)


def test_pair_counts_exact_for_a_large_alphabet():
    p = 251  # a + d for the shifted one-hot exceeds 255 here
    words = np.random.default_rng(7).integers(0, p, size=(9, 5)).astype(np.uint8)
    words[3] = words[0]
    a = words.astype(np.int64)
    with mock.patch.object(construction, "_PAIR_BLOCK_BYTES", 4 * 9 * 2 * p):  # 2 rows, 2 columns
        for u0, counts in _pair_counts(words, p, p - 1):
            for i in range(counts.shape[1]):
                diff = (a[u0 + i] - a[u0 + i + 1 :]) % p
                want = (diff[None, :, :] == np.arange(p - 1)[:, None, None]).sum(axis=2)
                assert np.array_equal(counts[:, i, i + 1 :], want)


# codes of more than 256 words, so the cap of ceil(m/4) rows a block binds; no Gray image at
# p = 251 is small, so there the words are random, 300 of 7 symbols
SEAM_CASES = [(2, (1, 0, 0, 0, 0, 0, 0, 1)), (3, (1, 0, 0, 0, 1)), (5, (4,)), (7, (1, 1)), (251, None)]


@pytest.mark.parametrize("how", ["genuine", "permuted", "corrupted", "repeated"])
@pytest.mark.parametrize("p,ts", SEAM_CASES)
def test_pair_counts_exact_at_every_seam_under_the_row_cap(p, ts, how):
    rng = np.random.default_rng(p)
    words = rng.integers(0, p, size=(300, 7)).astype(np.uint8) if ts is None else gh_code(p, ts).words.copy()
    words = altered(words, p, how, rng)
    a = words.astype(np.int64)
    m, n = a.shape
    cap = max(64, -(-m // 4))
    width = n // 4 + 1  # chunks of this width leave a shorter last chunk
    # every symbol of 251 would take seconds here; test_pair_counts_exact_for_a_large_alphabet counts them all
    for syms in (1, min(p - 1, 16)):
        # the default budget, where the cap sets the blocks, then one of chunks of `width` columns
        for block_bytes in (construction._PAIR_BLOCK_BYTES, 4 * (p - 1) * m * width):
            with mock.patch.object(construction, "_PAIR_BLOCK_BYTES", block_bytes):
                u0_next = 0
                for u0, counts in _pair_counts(words, p, syms):
                    rows = counts.shape[1]
                    assert u0 == u0_next and rows <= cap and counts.shape[::2] == (syms, m - u0)
                    for i in {0, rows - 1}:  # the rows on either side of the seam
                        diff = (a[u0 + i] - a[u0:]) % p
                        want = (diff[None, :, :] == np.arange(syms)[:, None, None]).sum(axis=2)
                        want[:, : i + 1] = 0  # v = u0 + j <= u is no pair of the scan
                        assert np.array_equal(counts[:, i], want), (syms, block_bytes, u0, i)
                    u0_next += rows
                assert u0_next == m


@pytest.mark.parametrize("p,ts", [(3, (1, 0, 0, 0, 1)), (5, (4,))])
def test_exhaustive_scans_hold_a_quarter_square_block(p, ts):
    # 729 words of 243 symbols and 625 of 125: the image is built before tracing starts, so the
    # peak is what the GH check and then the minimum distance add above it (18.5 and 15.0 MiB
    # when every block spanned all rows and p one-hot columns a coordinate)
    gc = gh_code(p, ts)
    tracemalloc.start()
    try:
        verdict = is_gh_code(gc, mode="exhaustive")
        distance = min_distance(gc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and distance == p ** (gc.sig.t - 1) * (p - 1)
    assert peak <= 8 * 2**20, peak


def test_reduced_scan_memory_hardly_depends_on_the_transversal():
    # every type of 625 words at p = 5, |T| from 1 to 125: blocks of at most _LEFT_BLOCK_ROWS rows of T
    # keep the GH check's peak within 1.3-1.9 MiB (1.3-5.2 MiB when a block took every row of T)
    peaks = []
    for ts in [ts for s in range(1, 5) for ts in enumerate_types(3, s)]:
        gc = gh_code(5, ts)
        tracemalloc.start()
        try:
            verdict = is_gh_code(gc, mode="exhaustive")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert verdict.passed
    assert max(peaks) - min(peaks) <= 2**20, peaks


@pytest.mark.parametrize("p", [2, 3, 5, 7, 127, 131])
def test_mod_p_diff_matches_integer_arithmetic(p):
    a = np.repeat(np.arange(p, dtype=np.uint8), p).reshape(p, p)
    b = a.T.copy()
    want = (a.astype(np.int64) - b) % p
    fresh = a.copy()  # a fresh gather, as the callers pass: the result may be written into it
    got = _mod_p_diff(fresh, b, p)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert got is fresh or p > 127
    row = np.arange(p, dtype=np.uint8)[::-1].copy()  # one word against many, as the callers use it
    assert np.array_equal(_mod_p_diff(a.copy(), row[None, :], p), (a.astype(np.int64) - row) % p)


def test_exhaustive_check_memory_stays_near_the_gray_image():
    a = sig(3, (3, 1))  # t = 6: 2187 words of length 729
    gc = build_gray_code(a)
    tracemalloc.start()
    try:
        verdict = is_gh_code(gc, mode="exhaustive")
        gh_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        distance = min_distance(gc)
        distance_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and verdict.pairs_checked == len(gc) * (len(gc) - 1) // 2
    assert distance == 3**5 * 2
    assert max(gh_peak, distance_peak) <= gray_bytes(a) + 16 * 2**20


@pytest.mark.parametrize(
    "p,ts,mode",
    [(2, (2, 0, 0, 0, 1), "exhaustive"), (3, (3, 1), "exhaustive"), (5, (2, 1), "exhaustive"), (3, (3, 2), "sampled")],
)
def test_estimate_bounds_building_and_scanning_pairs(p, ts, mode):
    # the image with its phi table built cold, then the GH check and the minimum distance
    a = sig(p, ts)
    _phi_table_cached.cache_clear()
    tracemalloc.start()
    try:
        gc = materialize_gray(AdditiveCode.build(a))
        verdict = is_gh_code(gc, mode=mode, pairs=10**5)
        distance = min_distance(gc) if mode == "exhaustive" else None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and distance in (None, p ** (a.t - 1) * (p - 1))
    assert peak <= materialization_bytes(a), peak


@pytest.mark.parametrize("ts", [(7,), (3, 1), (1, 0, 4), (1, 0, 0, 0, 2), (1, 0, 0, 0, 0, 0, 0)])
def test_materialize_gray_holds_only_the_image(ts):
    # t = 6: each image is 2187 x 729 bytes; no additive matrix is held beside it
    code = AdditiveCode.build(sig(3, ts))
    materialize_gray(code)  # fill the phi table first
    tracemalloc.start()
    try:
        gc = materialize_gray(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gc.words.shape == (3**7, 3**6)
    assert peak <= gray_bytes(code.sig) + 2**20, peak


@pytest.mark.parametrize("p,ts", [(3, (7,)), (3, (3, 1)), (3, (1, 0, 4)), (2, (2, 0, 0, 1)), (5, (2, 1))])
def test_a_long_code_is_spanned_one_range_of_coordinates_at_a_time(monkeypatch, p, ts):
    # with room for the span of three coordinates, the image is the one spanned on all of them, and
    # the build holds the span of one range beside it, the term materialization_bytes counts
    a = sig(p, ts)
    code = AdditiveCode.build(a)
    whole = materialize_gray(code).words
    words = construction._block_words(p, a.t + 1, max(8 * a.n, a.gray_length))
    per_coordinate = construction.span_bytes(a, a.t + 1, words) // a.n
    monkeypatch.setattr(construction, "_SPAN_BYTES", 3 * per_coordinate)
    assert construction._gray_span(a) == (words, 3)
    tracemalloc.start()
    try:
        split = materialize_gray(code).words
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(split, whole)
    assert peak <= gray_bytes(a) + 3 * per_coordinate + 2**18, peak


# ---------------------------------------------------------------------------
# randomized structural invariants
# ---------------------------------------------------------------------------

SMALL_SIGS = st.one_of(
    st.tuples(st.just(2), st.tuples(st.integers(1, 3), st.integers(0, 2))),
    st.tuples(st.just(2), st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(0, 1))),
    st.tuples(st.just(3), st.tuples(st.integers(1, 2), st.integers(0, 1))),
    st.tuples(st.just(5), st.tuples(st.integers(1, 1), st.integers(0, 1))),
)


@settings(max_examples=40, deadline=None)
@given(SMALL_SIGS)
def test_size_orders_and_gray_shape_consistent(p_ts):
    p, ts = p_ts
    a = sig(p, ts)
    orders = row_orders(a)
    prod = 1
    for o in orders:
        prod *= o
    assert prod == a.size
    if gray_bytes(a) <= 2**22:
        gc = build_gray_code(a)
        assert gc.words.shape == (a.size, a.gray_length)
        assert len(rows_as_set(gc.words)) == a.size
