"""Generator matrices, code materialization and the Hadamard checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes.construction import (
    AdditiveCode,
    GrayCode,
    build_gray_code,
    enumerate_codewords,
    generator_matrix,
    gray_bytes,
    is_gh_code,
    materialize_additive,
    materialize_gray,
    min_distance,
    module_size,
    p_basis,
    row_orders,
    validate_type,
)
from ghcodes.errors import CapacityError, InputError


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


def test_row_orders():
    assert row_orders(sig(3, (2, 1))) == (9, 9, 3)
    assert row_orders(sig(3, (1, 1, 0))) == (27, 9)
    assert row_orders(sig(2, (3, 2))) == (4, 4, 4, 2, 2)


def test_p_basis_1_1_0():
    basis = [v.tolist() for v in p_basis(sig(3, (1, 1, 0)))]
    assert basis == [
        [1] * 9,
        [3] * 9,
        [9] * 9,
        list(range(0, 27, 3)),
        [0, 9, 18, 0, 9, 18, 0, 9, 18],
    ]


def test_p_basis_counts_match_t_plus_one():
    for a in [sig(3, (2, 1)), sig(3, (1, 1, 0)), sig(2, (3, 2)), sig(5, (1, 1))]:
        assert len(p_basis(a)) == a.t + 1


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------


def rows_as_set(arr):
    return {tuple(int(v) for v in row) for row in arr}


@pytest.mark.parametrize("p,ts", [(3, (2, 1)), (3, (1, 1, 0)), (2, (2, 1)), (5, (1, 0))])
def test_module_size_is_p_to_t_plus_one(p, ts):
    a = sig(p, ts)
    gen = generator_matrix(a).astype(np.int64)
    assert module_size(gen, a.params) == a.size


@pytest.mark.parametrize("p,ts", [(3, (1, 1)), (3, (2, 0)), (2, (2, 1)), (2, (1, 1, 0))])
def test_enumerate_matches_materialize(p, ts):
    code = AdditiveCode.build(sig(p, ts))
    chunks = list(enumerate_codewords(code, chunk_rows=7))
    streamed = np.vstack(chunks)
    dense = materialize_additive(code)
    assert streamed.shape == dense.shape == (code.sig.size, code.sig.n)
    assert rows_as_set(streamed) == rows_as_set(dense)
    assert len(rows_as_set(dense)) == code.sig.size  # all codewords distinct


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
    assert gc.set_equal(shuffled)
    tweaked = gc.words.copy()
    tweaked[0, 0] ^= 1
    assert not gc.set_equal(tweaked)


def test_set_equal_rejects_repeated_rows():
    gc = build_gray_code(sig(3, (1, 1)))
    assert not gc.set_equal(np.repeat(gc.words[:1], len(gc), axis=0))
    copied = gc.words.copy()
    copied[4] = copied[9]  # every row is still a codeword, word 4 is gone
    assert not gc.set_equal(copied)


def test_capacity_errors_carry_sizes():
    a = sig(3, (2, 2))
    with pytest.raises(CapacityError) as exc:
        build_gray_code(a, budget_bytes=128)
    assert exc.value.budget_bytes == 128
    assert exc.value.required_bytes > 128

    with pytest.raises(CapacityError):
        materialize_additive(AdditiveCode.build(a), budget_bytes=128)


# ---------------------------------------------------------------------------
# Hadamard difference property and distances
# ---------------------------------------------------------------------------


def naive_is_gh(words, p):
    """Pair-by-pair reference check: differences constant or balanced."""
    m, n = words.shape
    lam = n // p
    a = words.astype(np.int64)
    for i in range(m):
        d = (a[i + 1 :] - a[i]) % p
        counts = np.stack([(d == v).sum(axis=1) for v in range(p)], axis=1)
        constant = (counts == n).any(axis=1)
        balanced = (counts == lam).all(axis=1)
        if not (constant | balanced).all():
            return False
    return True


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


def test_sampled_mode_is_deterministic():
    gc = build_gray_code(sig(3, (2, 0)))
    a = is_gh_code(gc, mode="sampled", pairs=2000, seed=99)
    b = is_gh_code(gc, mode="sampled", pairs=2000, seed=99)
    assert a.passed and b.passed
    assert a.pairs_checked == b.pairs_checked == 2000


def test_auto_mode_picks_exhaustive_for_small_codes():
    gc = build_gray_code(sig(3, (1, 1)))
    assert is_gh_code(gc).mode == "exhaustive"


@pytest.mark.parametrize("p,ts", [(3, (1, 1)), (3, (2, 0)), (2, (2, 1)), (5, (1, 0))])
def test_min_distance_golden(p, ts):
    gc = build_gray_code(sig(p, ts))
    d = min_distance(gc)
    assert d == naive_min_distance(gc.words)
    assert d == p ** (gc.sig.t - 1) * (p - 1)


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
