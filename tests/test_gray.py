"""Gray map, permutations, and the paper's gamma/rho permutations and tau unmapping.

The frozen tables for p=3, s=3 (all 27 Gray rows and tau values) pin the
conventions; the property tests then cover other p and s.  The Y matrix
of the Gray map's definition is kept here, as the oracle phi is built
against; gamma, rho, tau, tau_tilde and the inverse Gray map are kept in
``paper_steps`` as the oracle of the chain witness.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes.errors import InputError
from ghcodes.gray import Permutation, _phi_table_cached, gray, gray_matrix, phi_table
from ghcodes.ring import RingParams

from goldens import PHI3, TAU3
from paper_steps import (
    NotAGrayImage,
    apply_inverse,
    block_lift,
    cycle_string,
    from_one_based,
    gamma,
    gamma_extended,
    gray_inverse,
    identity_permutation,
    inverse,
    one_based,
    rho,
    tau,
    tau_tilde,
)

PS = RingParams(3, 3)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_permutation_validation():
    Permutation(np.array([1, 0, 2]))
    with pytest.raises(InputError):
        Permutation(np.array([0, 0, 2]))
    with pytest.raises(InputError):
        Permutation(np.array([0, 3, 1]))
    with pytest.raises(InputError):
        Permutation(np.array([-1, 1, 0]))
    with pytest.raises(InputError):
        Permutation(np.array([], dtype=np.int64))


def test_apply_moves_k_to_image_k():
    # "moves coordinate k to pi(k)": result[pi(k)] = input[k]
    pi = Permutation(np.array([1, 2, 0]))
    x = np.array([10, 20, 30])
    assert pi(x).tolist() == [30, 10, 20]
    assert apply_inverse(pi, pi(x)).tolist() == x.tolist()


def scatter(pi, x):
    """Reference application: result[image[k]] = x[k] along the last axis."""
    out = np.empty_like(x)
    out[..., pi.image] = x
    return out


@pytest.mark.parametrize("shape", [(13,), (4, 29), (3, 2, 64), (2, 5, 1)], ids=str)
def test_gather_equals_scatter_reference(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        pi = Permutation(rng.permutation(shape[-1]))
        x = rng.integers(0, 256, size=shape).astype(np.uint8)
        y = pi(x)
        assert y.shape == x.shape and y.dtype == x.dtype
        assert np.array_equal(y, scatter(pi, x))
        assert np.array_equal(pi(apply_inverse(pi, x)), x)
        assert np.array_equal(apply_inverse(pi, y), x)
        # a strided view and a wider dtype go through the same gather
        wide = x[..., ::-1].astype(np.int64)
        assert np.array_equal(pi(wide), scatter(pi, wide))


def test_permutation_arrays_stay_read_only():
    pi = Permutation(np.random.default_rng(3).permutation(10))
    pi(np.arange(10))
    apply_inverse(pi, np.arange(10))
    assert not pi.image.flags.writeable
    assert not pi.source.flags.writeable
    assert pi.source is pi.source  # computed once
    assert np.array_equal(pi.source[pi.image], np.arange(10))
    assert inverse(pi).image.tolist() == pi.source.tolist()
    with pytest.raises(ValueError):
        pi.image[0] = 1
    with pytest.raises(ValueError):
        pi.source[0] = 1


def test_compose_is_apply_after():
    rng = np.random.default_rng(7)
    f = Permutation(rng.permutation(12))
    g = Permutation(rng.permutation(12))
    x = rng.integers(0, 100, size=12)
    assert np.array_equal(f.compose(g)(x), f(g(x)))
    assert np.array_equal(f.compose(inverse(f))(x), x)


def test_one_based_roundtrip():
    pi = Permutation(np.array([2, 0, 1, 3]))
    assert one_based(pi) == (3, 1, 2, 4)
    assert from_one_based(one_based(pi)) == pi


def test_block_lift():
    pi = Permutation(np.array([1, 0]))  # swap two blocks
    lifted = block_lift(pi, 3)
    x = np.arange(6)
    assert lifted(x).tolist() == [3, 4, 5, 0, 1, 2]


def test_gamma3_golden():
    g = gamma(3, 3)
    assert one_based(g) == (1, 4, 7, 2, 5, 8, 3, 6, 9)
    assert cycle_string(g) == "(2,4)(3,7)(6,8)"


def test_gamma4_golden():
    g = gamma(3, 4)
    assert one_based(g) == (
        1, 4, 7, 10, 13, 16, 19, 22, 25,
        2, 5, 8, 11, 14, 17, 20, 23, 26,
        3, 6, 9, 12, 15, 18, 21, 24, 27,
    )
    assert cycle_string(g) == (
        "(2,4,10)(3,7,19)(5,13,11)(6,16,20)(8,22,12)(9,25,21)(15,17,23)(18,26,24)"
    )


def test_gamma2_is_identity():
    assert gamma(3, 2) == identity_permutation(3)
    assert gamma(2, 2) == identity_permutation(2)


def test_gamma_extended_golden():
    g = gamma_extended(3, 3, 9)
    assert g.size == 81
    assert cycle_string(g) == (
        "(2,4)(3,7)(6,8)(11,13)(12,16)(15,17)(20,22)(21,25)(24,26)"
        "(29,31)(30,34)(33,35)(38,40)(39,43)(42,44)(47,49)(48,52)"
        "(51,53)(56,58)(57,61)(60,62)(65,67)(66,70)(69,71)(74,76)(75,79)(78,80)"
    )


def test_rho_golden():
    assert one_based(rho(3, 2)) == (1, 4, 2, 5, 3, 6)
    assert one_based(rho(3, 4)) == (1, 4, 7, 10, 2, 5, 8, 11, 3, 6, 9, 12)
    assert one_based(rho(3, 9)) == (
        1, 4, 7, 10, 13, 16, 19, 22, 25,
        2, 5, 8, 11, 14, 17, 20, 23, 26,
        3, 6, 9, 12, 15, 18, 21, 24, 27,
    )


# ---------------------------------------------------------------------------
# Y matrix and the Gray map
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_y_matrix(p, s):
    """The oracle's s x p^s matrix whose columns enumerate Z_p^s.

    Column c holds the base-p digits of c, least significant in row 0, so
    row i is the i-th digit sequence of 0..p^s-1.
    """
    RingParams(p, s)  # validates p prime, s >= 1 and size
    if s == 1:
        y = np.arange(p, dtype=np.int64)[None, :]
    else:
        prev = build_y_matrix(p, s - 1)
        y = np.vstack([np.tile(prev, p), np.repeat(np.arange(p, dtype=np.int64), p ** (s - 1))[None, :]])
    y.flags.writeable = False
    return y


@pytest.mark.parametrize("p,s", [(2, 2), (2, 4), (3, 2), (3, 4), (5, 3)])
def test_y_matrix_columns_are_base_p_digits(p, s):
    y = build_y_matrix(p, s)
    assert y.shape == (s, p**s)
    for c in range(p**s):
        col = tuple(int(v) for v in y[:, c])
        assert col == tuple(c // p**i % p for i in range(s))


def test_y_matrix_rejects_s_below_one():
    with pytest.raises(InputError, match="s must be >= 1"):
        build_y_matrix(3, 0)


def test_phi3_golden_all_rows():
    for u, row in PHI3.items():
        assert tuple(int(v) for v in gray(u, PS)) == row


def test_phi_table_matches_gray():
    table = phi_table(PS)
    assert table.shape == (27, 9)
    for u in range(27):
        assert tuple(int(v) for v in table[u]) == PHI3[u]


def phi_by_digit_matrix(p, s):
    """phi(u) = u_{s-1} + (u_0, ..., u_{s-2}) . Y over every u at once, in int64 (the earlier build)."""
    if s == 1:
        return np.arange(p, dtype=np.uint8)[:, None]
    dig = np.arange(p**s, dtype=np.int64)[:, None] // p ** np.arange(s) % p
    return ((dig[:, s - 1 : s] + dig[:, : s - 1] @ build_y_matrix(p, s - 1)) % p).astype(np.uint8)


# every ring the tests build codes over, p = 13, s = 3 (a sum of products overflows uint8)
# and two primes above 128, whose sums of two residues overflow uint8
PHI_RINGS = [(2, s) for s in range(1, 11)] + [(3, s) for s in range(1, 8)] + [(5, s) for s in range(1, 6)]
PHI_RINGS += [(7, s) for s in range(1, 5)] + [(13, 3), (131, 2), (251, 2)]


@pytest.mark.parametrize("p,s", PHI_RINGS)
def test_phi_table_matches_the_digit_matrix_build(p, s):
    table = phi_table(RingParams(p, s))
    assert table.dtype == np.uint8 and not table.flags.writeable
    assert np.array_equal(table, phi_by_digit_matrix(p, s))


@pytest.mark.parametrize("p,s", [(3, 7), (2, 10), (5, 5), (13, 3), (251, 2)])
def test_cold_phi_build_holds_about_twice_the_table(p, s):
    # the int64 build of (3, 7) peaked at 16x its 1.52 MiB table, and the uint16 sums of (251, 2) at 4x its 15.8 MB
    _phi_table_cached.cache_clear()
    tracemalloc.start()
    try:
        table = _phi_table_cached(p, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes + 128 * p**s + 2**18, peak  # and numpy's fixed buffers


def test_gray_builds_one_row_not_the_table():
    # the table of Z_{2^16} is 2^16 rows of 2^15 symbols (2 GiB); one row is 32 KiB
    params = RingParams(2, 16)
    _phi_table_cached.cache_clear()
    tracemalloc.start()
    try:
        row = gray(13, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _phi_table_cached.cache_info().currsize == 0
    assert peak < 2**20, peak
    assert row.dtype == np.uint8 and not row.flags.writeable
    digits = [13 >> i & 1 for i in range(16)]  # phi(u)[j] = u_15 + sum_i u_i j_i (mod 2)
    j = np.arange(2**15)
    want = (digits[15] + sum(digits[i] * (j >> i & 1) for i in range(15))) % 2
    assert np.array_equal(row, want)


def test_phi1_is_identity():
    params = RingParams(5, 1)
    for u in range(5):
        assert gray(u, params).tolist() == [u]


def test_gray_matrix_batches():
    rows = np.array([[0, 13, 26], [9, 4, 1]], dtype=np.uint8)
    out = gray_matrix(PS, rows)
    assert out.shape == (2, 27)
    assert tuple(out[0]) == PHI3[0] + PHI3[13] + PHI3[26]
    assert tuple(out[1]) == PHI3[9] + PHI3[4] + PHI3[1]


@pytest.mark.parametrize("p,s", [(2, 4), (3, 3), (5, 2), (2, 9), (3, 6)])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
def test_gray_matrix_chunks_agree_with_table_lookup(p, s, dtype):
    # the chunk seams are those of the codeword blocks, checked in test_construction
    params = RingParams(p, s)
    table = phi_table(params)
    rng = np.random.default_rng(p * s)
    if params.modulus > np.iinfo(dtype).max:
        pytest.skip("residues do not fit the dtype")
    for m, n in [(37, 5), (1, 3), (0, 4), (6, 1)]:
        rows = rng.integers(0, params.modulus, size=(m, n)).astype(dtype)
        got = gray_matrix(params, rows)
        assert got.dtype == np.uint8
        assert np.array_equal(got, table[rows].reshape(m, n * table.shape[1]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]), st.data())
def test_gray_inverse_roundtrip(ps, data):
    p, s = ps
    params = RingParams(p, s)
    u = data.draw(st.integers(0, params.modulus - 1))
    w = gray(u, params)
    v = gray_inverse(w, params)
    assert v.tolist() == [u]


def test_gray_inverse_rejects_non_image():
    # (residues, coordinate to corrupt): coordinate 0 is read by the decode,
    # coordinate 4 of a 9-wide block is not (only the re-encode catches it),
    # and coordinate 22 lies in block 2 of a three-block word
    for us, coord in [((5,), 0), ((5,), 4), ((13, 0, 26), 22)]:
        w = gray_matrix(PS, np.array([us]))[0]
        assert gray_inverse(w, PS).tolist() == list(us)
        bad = w.copy()
        bad[coord] = (bad[coord] + 1) % 3
        with pytest.raises(NotAGrayImage, match=f"block {coord // 9} "):
            gray_inverse(bad, PS)


# residues and words from a caller are range-checked where they come in: no
# IndexError, and no negative index read from the far end of a cached table
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: gray(-1, PS), id="gray-negative"),
        pytest.param(lambda: gray(27, PS), id="gray-modulus"),
        pytest.param(lambda: gray(np.array([[1]]), PS), id="gray-2d"),
        pytest.param(lambda: gray(1.5, PS), id="gray-float"),
        pytest.param(lambda: gray(0, RingParams(257, 1)), id="gray-alphabet"),
        pytest.param(lambda: tau(-1, PS), id="tau-negative"),
        pytest.param(lambda: tau(27, PS), id="tau-modulus"),
        pytest.param(lambda: tau(np.array([[1]]), PS), id="tau-2d"),
        pytest.param(lambda: tau_tilde(np.array([0, -1]), PS), id="tau_tilde-negative"),
        pytest.param(lambda: tau_tilde(np.array([0, 27]), PS), id="tau_tilde-modulus"),
        pytest.param(lambda: tau_tilde(np.array([[5]]), PS), id="tau_tilde-2d"),
        pytest.param(lambda: tau_tilde(np.array([5.0]), PS), id="tau_tilde-float"),
        pytest.param(lambda: gray_inverse(np.full(9, -1), PS), id="gray_inverse-negative"),
        pytest.param(lambda: gray_inverse(np.full(9, 3, dtype=np.uint8), PS), id="gray_inverse-symbol"),
        pytest.param(lambda: gray_inverse(np.zeros((1, 9), dtype=np.uint8), PS), id="gray_inverse-2d"),
        pytest.param(lambda: gray_inverse(np.full(9, 1.5), PS), id="gray_inverse-float"),
        pytest.param(lambda: gray_inverse(np.zeros(8, dtype=np.uint8), PS), id="gray_inverse-length"),
    ],
)
def test_public_maps_reject_bad_input(call):
    with pytest.raises(InputError):  # NotAGrayImage is an InputError
        call()


# lemma: phi_s(lambda * p^(s-1)) is the constant word
@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_top_order_residues_map_to_constants(p, s):
    params = RingParams(p, s)
    for lam in range(p):
        w = gray(lam * p ** (s - 1), params)
        assert set(w.tolist()) == {lam}


# gamma_s sends the constant-block pattern to the repeating (0..p-1) pattern;
# the reverse direction needs the inverse except at s <= 3 where gamma is an
# involution on these two words.
@pytest.mark.parametrize("p,s", [(2, 3), (2, 4), (3, 3), (3, 4), (5, 3)])
def test_gamma_on_block_patterns(p, s):
    n = p ** (s - 1)
    u = np.repeat(np.arange(p, dtype=np.uint8), n // p)
    v = np.tile(np.arange(p, dtype=np.uint8), n // p)
    g = gamma(p, s)
    assert np.array_equal(g(u), v)
    assert np.array_equal(apply_inverse(g, v), u)
    if s <= 3:
        assert np.array_equal(g(v), u)


# digitwise additivity of phi_s: sum of lambda_i*phi(p^i) = phi(sum lambda_i p^i)
@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (2, 4), (3, 2), (3, 3), (5, 2)]), st.data())
def test_gray_additive_on_digit_decomposition(p_s, data):
    p, s = p_s
    params = RingParams(p, s)
    lams = [data.draw(st.integers(0, p - 1)) for _ in range(s - 1)]
    u = sum(lam * p**i for i, lam in enumerate(lams))
    acc = np.zeros(p ** (s - 1), dtype=np.int64)
    for i, lam in enumerate(lams):
        acc = (acc + lam * gray(p**i, params).astype(np.int64)) % p
    assert np.array_equal(acc.astype(np.uint8), gray(u, params))


# ---------------------------------------------------------------------------
# tau and tau_tilde
# ---------------------------------------------------------------------------


def test_tau3_golden_all_entries():
    for u, want in TAU3.items():
        assert tau(u, PS).tolist() == list(want)


def test_phi_factors_through_tau():
    # phi_s(u) = gamma_s(Phi_{s-1}(tau_s(u))) for every residue
    g = gamma(3, 3)
    for u in range(27):
        inner = gray_matrix(RingParams(3, 2), tau(u, PS)[None])[0]
        assert tuple(int(v) for v in g(inner)) == PHI3[u]


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2)])
def test_tau_of_one_and_towers(p, s):
    params = RingParams(p, s)
    if s >= 2:
        want = [j * p ** (s - 2) for j in range(p)]
        assert tau(1, params).tolist() == want
        for i in range(1, s):
            for u in range(p ** (s - 1)):
                got = tau(p**i * u % params.modulus, params)
                want_i = [(p ** (i - 1) * u) % p ** (s - 1)] * p
                assert got.tolist() == want_i


# tau is additive over digit decompositions
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 3), (3, 3), (3, 4), (5, 2)]), st.data())
def test_tau_additive_on_digit_decomposition(p_s, data):
    p, s = p_s
    params = RingParams(p, s)
    inner = RingParams(p, s - 1)
    lams = [data.draw(st.integers(0, p - 1)) for _ in range(s)]
    u = sum(lam * p**i for i, lam in enumerate(lams)) % params.modulus
    acc = np.zeros(p, dtype=np.int64)
    for i, lam in enumerate(lams):
        acc = (acc + lam * tau(p**i % params.modulus, params)) % inner.modulus
    assert np.array_equal(tau(u, params), acc)


def test_tau_tilde_basis_examples():
    z27 = RingParams(3, 3)
    ones = np.ones(9, dtype=np.int64)
    assert tau_tilde(ones, z27).tolist() == [0] * 9 + [3] * 9 + [6] * 9
    assert tau_tilde(3 * ones, z27).tolist() == [1] * 27
    assert tau_tilde(9 * ones, z27).tolist() == [3] * 27
    w2 = np.arange(0, 27, 3)
    assert tau_tilde(w2, z27).tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8] * 3
    assert tau_tilde(3 * w2 % 27, z27).tolist() == [0, 3, 6] * 9


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (5, 2)]), st.data())
def test_gray_factors_through_tau_tilde(p_s, data):
    # Phi_s(u) = gamma_ext(Phi_{s-1}(rho(tau_tilde(u)))) for vectors u
    p, s = p_s
    params = RingParams(p, s)
    n = data.draw(st.integers(1, 6))
    entries = [data.draw(st.integers(0, params.modulus - 1)) for _ in range(n)]
    lhs = gray_matrix(params, np.array([entries]))[0]

    reordered = rho(p, n)(tau_tilde(np.array(entries), params))
    rhs = gamma_extended(p, s, n)(gray_matrix(RingParams(p, s - 1), reordered[None])[0])
    assert np.array_equal(lhs, rhs)
