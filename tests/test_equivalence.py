"""Chain algebra and the explicit permutation witnesses between Gray images."""

import importlib
import json
import tracemalloc

import numpy as np
import pytest

from ghcodes.classification import enumerate_types
from ghcodes.construction import (
    AdditiveCode,
    OdometerSpan,
    build_gray_code,
    generator_matrix,
    materialize_additive,
    order_p_split,
    validate_type,
)
from ghcodes.equivalence import (
    _maps_onto,
    chain_members,
    chain_of,
    set_check_bytes,
    sigma,
    step_permutation,
    verify_equivalence,
    witness_bytes,
)
from ghcodes.errors import CapacityError, GHCodeError, InputError, NoSecondRow
from ghcodes.gray import Permutation, gray_matrix
from ghcodes.invariants import kernel
from ghcodes.ring import RingParams

from paper_steps import apply_inverse, cycles, paper_step, paper_witness, tau_tilde
from product_oracle import row_orders
from sorted_key_code import set_equal
from streamed_set_check import streamed_set_equal
from test_invariants import broken_phi, fresh_ring_caches  # noqa: F401 (a fixture)

construction = importlib.import_module("ghcodes.construction")
equivalence = importlib.import_module("ghcodes.equivalence")
streamed_set_check = importlib.import_module("streamed_set_check")


def sig(p, ts):
    return validate_type(p, ts)


# ---------------------------------------------------------------------------
# chain algebra
# ---------------------------------------------------------------------------


def test_sigma_is_second_row_level():
    # order of the second generator row is p^(s+1-sigma)
    for p, ts in [(3, (2, 1)), (3, (1, 1, 0)), (3, (1, 0, 2)), (2, (1, 0, 1, 1))]:
        a = sig(p, ts)
        sg = sigma(a)
        assert row_orders(a)[1] == p ** (a.s + 1 - sg)


def test_sigma_requires_second_row():
    for ts in [(1,), (1, 0), (1, 0, 0)]:
        with pytest.raises(NoSecondRow):
            sigma(sig(3, ts))


def test_chain_of_golden():
    cp = chain_of(sig(3, (1, 0, 2, 1)))
    assert cp.representative.ts == (3, 3)
    assert cp.position == 3

    cp = chain_of(sig(3, (2, 1)))
    assert cp.representative.ts == (2, 1)
    assert cp.position == 1

    # sigma == s collapses onto a single-entry marker over Z_p
    cp = chain_of(sig(3, (1, 0, 2)))
    assert cp.representative.ts == (4,)
    assert cp.position == 3


def test_chain_members_golden():
    ch = chain_members(sig(3, (3, 3)))
    assert [m.ts for m in ch] == [(3, 3), (1, 2, 2), (1, 0, 2, 1), (1, 0, 0, 2, 0)]
    assert len(ch) == 4
    assert ch[2].ts == (1, 0, 2, 1)


def test_chain_members_rejects_non_representatives():
    with pytest.raises(InputError):
        chain_members(sig(3, (1, 1)))


def test_trailing_zero_types_are_their_own_chain():
    ch = chain_members(sig(3, (3, 0)))
    assert [m.ts for m in ch] == [(3, 0)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_chain_roundtrip_exhaustive(p):
    # every type locates to a representative whose chain contains it at
    # the reported position, and all chain members agree on the chain
    for t in range(1, 13):
        for s in range(1, t + 2):
            for ts in enumerate_types(t, s):
                a = sig(p, ts)
                try:
                    cp = chain_of(a)
                except NoSecondRow:
                    assert ts[0] == 1 and all(v == 0 for v in ts[1:])
                    continue
                ch = chain_members(cp.representative)
                assert ch[cp.position - 1].ts == ts
                for i, member in enumerate(ch):
                    try:
                        located = chain_of(member)
                    except NoSecondRow:
                        # the top of a collapsed chain is the single-row type
                        assert i + 1 == len(ch)
                        assert member.ts[0] == 1 and all(v == 0 for v in member.ts[1:])
                        continue
                    assert located.representative.ts == cp.representative.ts
                    assert located.position == i + 1


def test_members_share_gray_length():
    for rep_ts in [(3, 3), (2, 2), (4,)]:
        ch = chain_members(sig(3, rep_ts))
        start = 0 if len(rep_ts) > 1 else 1  # collapsed marker is formal
        lengths = {m.gray_length for m in ch.members[start:]}
        assert len(lengths) == 1


# ---------------------------------------------------------------------------
# row relations between adjacent chain members
# ---------------------------------------------------------------------------

STEP_CASES = [(3, (2, 1)), (3, (2, 2)), (3, (1, 1, 1)), (2, (2, 1)), (2, (3, 2))]


def one_step_up(a):
    """Type one chain position higher: (1, t_1 - 1, t_2, ..., t_s - 1)."""
    ts = a.ts
    return validate_type(a.p, (1, ts[0] - 1, *ts[1 : a.s - 1], ts[a.s - 1] - 1))


@pytest.mark.parametrize("p,ts", STEP_CASES)
def test_middle_rows_tile_down(p, ts):
    a = sig(p, ts)
    b = one_step_up(a)
    lo = generator_matrix(a).astype(np.int64)
    hi = generator_matrix(b).astype(np.int64)
    k = lo.shape[0]
    assert hi.shape[0] == k - 1
    for i in range(1, k - 1):  # rows 2 .. k-1, 1-based
        assert np.array_equal(np.tile(hi[i], p), p * lo[i])
        assert row_orders(b)[i] == row_orders(a)[i]


@pytest.mark.parametrize("p,ts", STEP_CASES)
def test_tau_tilde_carries_basis_down(p, ts):
    a = sig(p, ts)
    b = one_step_up(a)
    lo = generator_matrix(a).astype(np.int64)
    hi = generator_matrix(b).astype(np.int64)
    hi_params = RingParams(p, a.s + 1)
    mod_lo = a.params.modulus
    k = lo.shape[0]

    # middle rows: tau_tilde(p^q w_i') = p^q w_i for q below the row order
    orders = row_orders(a)
    for i in range(1, k - 1):
        q = 1
        while q < orders[i]:
            got = tau_tilde(hi[i] * q % hi_params.modulus, hi_params)
            assert got.tolist() == (lo[i] * q % mod_lo).tolist()
            q *= p

    # first row drops one power of p
    for j in range(a.s):
        got = tau_tilde(hi[0] * p ** (j + 1) % hi_params.modulus, hi_params)
        assert got.tolist() == (lo[0] * p**j % mod_lo).tolist()

    # and its bare image is the last row of the lower matrix
    got = tau_tilde(hi[0], hi_params)
    assert got.tolist() == lo[k - 1].tolist()


@pytest.mark.parametrize("p,ts", [(3, (2, 1)), (2, (2, 1)), (3, (1, 1, 1))])
def test_tau_tilde_maps_codes_onto_each_other(p, ts):
    a = sig(p, ts)
    b = one_step_up(a)
    words_a = materialize_additive(AdditiveCode.build(a))
    words_b = materialize_additive(AdditiveCode.build(b))
    hi_params = RingParams(p, a.s + 1)
    mapped = {
        tuple(tau_tilde(row, hi_params).tolist()) for row in words_b.astype(np.int64)
    }
    assert mapped == {tuple(int(v) for v in row) for row in words_a}


@pytest.mark.parametrize("p,ts", [(3, (2, 1)), (2, (2, 1)), (3, (1, 1, 1))])
def test_step_permutation_matches_gray_images(p, ts):
    a = sig(p, ts)
    b = one_step_up(a)
    gc_lo = build_gray_code(a)
    gc_hi = build_gray_code(b)
    pi = step_permutation(p, a.s, b.n)
    assert pi.size == gc_lo.length
    assert set_equal(gc_lo, pi(gc_hi.words))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_step_permutation_is_the_papers_step(p):
    # (gamma_ext . rho_lift)^(-1) for s <= 4 and n' <= 29, n' that are not powers of p included
    for s in range(1, 5):
        for n_prime in range(1, 30):
            assert step_permutation(p, s, n_prime) == paper_step(p, s, n_prime), (s, n_prime)


@pytest.mark.parametrize("p,t_max,pairs", [(2, 13, 1573), (3, 9, 321), (5, 6, 69), (7, 4, 18)])
def test_the_witness_is_the_papers_steps_composed(p, t_max, pairs):
    # every pair of positions lo <= hi of every chain, identities and collapsed chains included
    seen = 0
    for t in range(1, t_max + 1):
        for rep, members in chains_at(p, t).items():
            for i, lo in enumerate(members):
                for hi in members[i:]:
                    report = verify_equivalence(lo, hi, check_sets=False)
                    assert report.witness == paper_witness(p, len(rep), *report.positions, t), (lo.ts, hi.ts)
                    seen += 1
    assert seen == pairs


# ---------------------------------------------------------------------------
# verify_equivalence
# ---------------------------------------------------------------------------


def test_equivalent_pair_with_witness():
    rep = verify_equivalence(sig(3, (2, 1)), sig(3, (1, 1, 0)))
    assert rep.passed
    assert rep.verdict == "PASS"
    assert rep.representative == (2, 1)
    assert rep.positions == (1, 2)
    assert rep.mode == "set-equality"
    assert rep.witness is not None

    gc_lo = build_gray_code(sig(3, (2, 1)))
    gc_hi = build_gray_code(sig(3, (1, 1, 0)))
    assert set_equal(gc_lo, rep.witness(gc_hi.words))


def test_two_step_witness():
    rep = verify_equivalence(sig(3, (2, 2)), sig(3, (1, 0, 1, 0)))
    assert rep.passed
    assert rep.positions == (1, 3)
    assert rep.mode == "set-equality"
    gc_lo = build_gray_code(sig(3, (2, 2)))
    gc_hi = build_gray_code(sig(3, (1, 0, 1, 0)))
    assert set_equal(gc_lo, rep.witness(gc_hi.words))


def test_witness_works_in_collapsed_chain():
    # two linear codes at different levels of the same collapsed chain
    rep = verify_equivalence(sig(3, (1, 3)), sig(3, (1, 0, 2)))
    assert rep.passed
    assert rep.representative == (4,)
    assert rep.positions == (2, 3)
    assert rep.mode == "set-equality"


def test_same_type_is_identically_equivalent():
    rep = verify_equivalence(sig(3, (2, 1)), sig(3, (2, 1)))
    assert rep.passed
    assert rep.positions == (1, 1)
    assert rep.witness is not None
    assert cycles(rep.witness) == []


def test_distinct_representatives_fail():
    rep = verify_equivalence(sig(3, (3, 0)), sig(3, (2, 2)))
    assert not rep.passed
    assert rep.mode == "algebra-only"
    assert "distinct representatives" in rep.detail
    assert rep.witness is None

    rep = verify_equivalence(sig(3, (2, 1)), sig(3, (1, 3)))
    assert not rep.passed


def test_mismatched_inputs_are_rejected():
    with pytest.raises(InputError):
        verify_equivalence(sig(2, (2, 1)), sig(3, (2, 1)))
    with pytest.raises(InputError):
        verify_equivalence(sig(3, (2, 1)), sig(3, (2, 2)))


def test_forced_set_check_without_budget_raises():
    with pytest.raises(CapacityError):
        verify_equivalence(sig(3, (2, 1)), sig(3, (1, 1, 0)), check_sets=True, budget_bytes=64)


def test_skipped_set_check_still_passes():
    rep = verify_equivalence(sig(3, (2, 1)), sig(3, (1, 1, 0)), check_sets=False)
    assert rep.passed
    assert rep.mode == "algebra-only"
    assert rep.witness is not None


def test_tiny_budget_gives_algebra_only_verdict():
    rep = verify_equivalence(sig(3, (2, 1)), sig(3, (1, 1, 0)), budget_bytes=100)
    assert rep.passed
    assert rep.mode == "algebra-only"
    assert rep.witness is None


@pytest.mark.parametrize("p,rep", [(2, (3, 12)), (3, (2, 7)), (5, (2, 4))])
def test_witness_is_composed_within_the_budget(p, rep):
    # the longest witnesses the benchmark composes, first member to last (12, 7 and 4 steps):
    # each run returns no witness or peaks at most at its budget
    members = chain_members(sig(p, rep)).members
    length = members[0].gray_length
    for budget in (8 * length, witness_bytes(length)):
        tracemalloc.start()
        try:
            report = verify_equivalence(members[0], members[-1], check_sets=False, budget_bytes=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.verdict, report.mode) == ("PASS", "algebra-only")
        assert report.witness is None or peak <= budget, (budget, peak)
        assert (report.witness is not None) == (budget == witness_bytes(length))


@pytest.mark.parametrize("p,t", [(2, 17), (3, 10), (5, 7)])
def test_a_shuffle_is_built_in_place(p, t):
    # the image is written beside two index ranges of length/q and q and wrapped with no check and no
    # copy: at q = p tracemalloc measured at most 1.63 images, where checking and copying it held two
    length = p**t
    tracemalloc.start()
    try:
        witness = Permutation._shuffle(length, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 8 * length, peak / (8 * length)
    assert not witness.image.flags.writeable
    assert np.array_equal(witness.image, np.arange(length).reshape(p, length // p).T.reshape(-1))
    # its inverse, the (length/p)-shuffle, is written the same way
    tracemalloc.start()
    try:
        source = witness.source
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 8 * length, peak / (8 * length)
    assert np.array_equal(source[witness.image], np.arange(length))


@pytest.mark.parametrize("p,t", [(2, 10), (3, 6), (5, 4)])
def test_a_shuffle_is_applied_by_transpose(p, t):
    # at every q = p^L, as the checked permutation of its image applies it: a gather through the
    # inverse scattered from the image
    length = p**t
    words = np.random.default_rng(t).integers(0, p, size=(3, length), dtype=np.uint8)
    for q in (p**L for L in range(t + 1)):
        shuffle = Permutation._shuffle(length, q)
        gather = Permutation(shuffle.image)
        assert np.array_equal(shuffle.source, gather.source), q
        for x in (words, words[0]):
            mapped = shuffle(x)
            assert np.array_equal(mapped, gather(x)), q
            assert not np.shares_memory(mapped, x)
        assert np.array_equal(apply_inverse(shuffle, shuffle(words)), words)


# ---------------------------------------------------------------------------
# the set-equality check on the order-p split, against the streamed oracle
# ---------------------------------------------------------------------------


def chains_at(p, t):
    """The members of length p^t of every chain at p, in position order, by representative.

    A collapsed chain keeps its members from position 2 on: its formal
    first member has another length, and its single-row top member has no
    second row, so no chain position.
    """
    chains = {}
    for s in range(1, t + 2):
        for ts in enumerate_types(t, s):
            try:
                cp = chain_of(sig(p, ts))
            except NoSecondRow:
                continue
            chains.setdefault(cp.representative.ts, []).append((cp.position, sig(p, ts)))
    return {rep: [m for _, m in sorted(members, key=lambda pm: pm[0])] for rep, members in chains.items()}


def spoiled(witness):
    """The witness after the transposition of coordinates 0 and 1."""
    swap = np.arange(witness.size)
    swap[[0, 1]] = [1, 0]
    return witness.compose(Permutation(swap))


def agree_with_the_oracle(lo, hi):
    """The check and the streamed oracle agree on the composed witness of lo and hi and on a spoiled copy."""
    report = verify_equivalence(lo, hi, check_sets=True)
    assert (report.verdict, report.mode) == ("PASS", "set-equality"), (lo.ts, hi.ts)
    assert streamed_set_equal(lo, hi, report.witness), (lo.ts, hi.ts)
    bad = spoiled(report.witness)
    got = _maps_onto(AdditiveCode.build(lo), AdditiveCode.build(hi), bad)
    assert got == streamed_set_equal(lo, hi, bad), (lo.ts, hi.ts)


@pytest.mark.parametrize("p,t_max", [(3, 6), (2, 9), (5, 4)])
def test_the_split_check_agrees_with_the_streamed_oracle(p, t_max):
    # every pair of positions of every chain, collapsed chains such as (1,3) / (1,0,2) included
    pairs = 0
    for t in range(1, t_max + 1):
        for members in chains_at(p, t).values():
            for i, lo in enumerate(members):
                for hi in members[i + 1 :]:
                    agree_with_the_oracle(lo, hi)
                    pairs += 1
    assert pairs == {3: 32, 2: 193, 5: 5}[p]


@pytest.mark.slow
def test_every_consecutive_t8_chain_pair_passes_and_agrees_with_the_oracle():
    # 14 pairs of nonlinear chains and 6 of the collapsed chain (8,) of linear codes
    chains = chains_at(3, 8)
    pairs = [(lo, hi) for members in chains.values() for lo, hi in zip(members, members[1:])]
    assert (len(pairs), len(chains[(8,)]) - 1) == (20, 6)
    for lo, hi in pairs:
        agree_with_the_oracle(lo, hi)


@pytest.mark.parametrize("p,rep", [(3, (2, 2)), (2, (2, 3)), (5, (2, 1))])
def test_streamed_check_passes_across_chunk_seams(monkeypatch, p, rep):
    members = chain_members(sig(p, rep)).members
    for chunk_bytes in (1, 2**12):  # one word per block, then a few
        monkeypatch.setattr(construction, "_CHUNK_BYTES", chunk_bytes)
        for hi in members[1:]:
            report = verify_equivalence(members[0], hi, check_sets=True)
            assert (report.verdict, report.mode, report.detail) == ("PASS", "set-equality", "")


def test_corrupted_witness_fails_set_equality(monkeypatch):
    lo, hi = sig(3, (2, 2)), sig(3, (1, 0, 1, 0))
    swap = np.arange(lo.gray_length)
    swap[[0, 1]] = [1, 0]
    transposition = Permutation(swap)
    honest = verify_equivalence(lo, hi).witness
    corrupt = honest.compose(transposition)  # the transposition acts first
    # the brute-force oracle: the corrupted witness does not map one image onto the other
    words_lo = {row.tobytes() for row in build_gray_code(lo).words}
    assert {row.tobytes() for row in corrupt(build_gray_code(hi).words)} != words_lo
    shuffle = Permutation._shuffle
    monkeypatch.setattr(Permutation, "_shuffle", lambda *a: shuffle(*a).compose(transposition))
    report = verify_equivalence(lo, hi, check_sets=True)
    assert report.verdict == "FAIL"
    assert report.mode == "set-equality"
    assert report.detail == "composed witness failed set equality"
    assert report.witness == corrupt


def test_repeated_word_in_higher_member_fails_set_equality(monkeypatch):
    # every mapped word is a member of the lower image, but one of them twice
    lo, hi = sig(3, (2, 2)), sig(3, (1, 0, 1, 0))
    real = equivalence._gray_blocks

    def one_row_copied(code_sig, rows):
        assert code_sig == hi  # only the higher member's transversal T_hi is streamed
        words = np.vstack([words for _, words in real(code_sig, rows)])
        words[7] = words[3]
        yield 0, words

    monkeypatch.setattr(equivalence, "_gray_blocks", one_row_copied)
    report = verify_equivalence(lo, hi, check_sets=True)
    assert (report.verdict, report.mode) == ("FAIL", "set-equality")
    assert report.detail == "composed witness failed set equality"


def test_a_word_off_the_lower_image_fails_set_equality(monkeypatch):
    # condition (a): one word of T_hi changed in one symbol maps to a word outside Phi(C_lo)
    lo, hi = sig(3, (2, 2)), sig(3, (1, 0, 1, 0))
    real = equivalence._gray_blocks
    changed = []

    def one_symbol_changed(code_sig, rows):
        for start, words in real(code_sig, rows):
            if start <= 5 < start + len(words):
                words[5 - start, 0] = (words[5 - start, 0] + 1) % 3
                changed.append(words[5 - start].copy())
            yield start, words

    monkeypatch.setattr(equivalence, "_gray_blocks", one_symbol_changed)
    report = verify_equivalence(lo, hi, check_sets=True)
    assert (report.verdict, report.mode) == ("FAIL", "set-equality")
    assert report.detail == "composed witness failed set equality"
    assert report.witness(changed[0]).tobytes() not in {row.tobytes() for row in build_gray_code(lo).words}


def test_a_top_image_outside_the_kernel_fails_set_equality(monkeypatch):
    # condition (b) alone: z_0 replaced by tau + z_0, a word of C_hi outside its kernel.  The mapped T_hi
    # stays inside Phi(C_lo) and distinct modulo the new Y, but y_0 is no kernel word of Phi(C_lo), so no word
    # of Phi(C_lo[p]): its index has nonzero digits off the top positions
    lo, hi = sig(3, (2, 2)), sig(3, (1, 0, 1, 0))
    code = AdditiveCode.build(hi)
    top, other = order_p_split(code)
    witness = verify_equivalence(lo, hi, check_sets=False).witness
    _, hi_kernel = kernel(build_gray_code(hi))
    taus = OdometerSpan(hi, other).words(np.arange(3 ** len(other)))
    tau = next(w for w in taus if not hi_kernel.contains(gray_matrix(hi.params, w[None])[0]))
    wrong = top.copy()
    wrong[0] = (tau + top[0]) % hi.params.modulus
    real = equivalence.order_p_split
    monkeypatch.setattr(equivalence, "order_p_split", lambda c: (wrong, other) if c.sig == hi else real(c))

    # the oracle, on the held images: (a) and (c) hold with the wrong Y, (b) fails
    lo_words = {row.tobytes() for row in build_gray_code(lo).words}
    mapped = witness(gray_matrix(hi.params, taus)).astype(np.int64)
    ys = witness(gray_matrix(hi.params, wrong)).astype(np.int64)
    span = np.array([c0 * ys[0] + c1 * ys[1] for c0 in range(3) for c1 in range(3)]) % 3
    sums = {row.astype(np.uint8).tobytes() for row in (mapped[:, None] + span[None]).reshape(-1, lo.gray_length) % 3}
    assert len(sums) == lo.size  # (c): the y_j independent, the mapped T_hi distinct modulo Y
    assert all(row.astype(np.uint8).tobytes() in lo_words for row in mapped)  # (a)
    shifted = (build_gray_code(lo).words.astype(np.int64) + ys[0]) % 3
    assert not all(row.astype(np.uint8).tobytes() in lo_words for row in shifted)  # (b) fails

    report = verify_equivalence(lo, hi, check_sets=True)
    assert (report.verdict, report.mode) == ("FAIL", "set-equality")
    assert report.detail == "composed witness failed set equality"


def test_dependent_top_images_fail_set_equality(monkeypatch):
    # condition (c), independence: with z_1 replaced by z_0, n_1 = n_0 and every check on words still holds,
    # but pi(Phi(T_hi)) + Y has p^(t+1) / p words, too few for Phi(C_lo)
    lo, hi = sig(3, (2, 2)), sig(3, (1, 0, 1, 0))
    top, other = order_p_split(AdditiveCode.build(hi))
    twice = top.copy()
    twice[1] = top[0]
    witness = verify_equivalence(lo, hi, check_sets=False).witness
    mapped = witness(gray_matrix(hi.params, OdometerSpan(hi, other).words(np.arange(3 ** len(other))))).astype(np.int64)
    y = witness(gray_matrix(hi.params, top[:1])).astype(np.int64)[0]
    assert len({((row + c * y) % 3).astype(np.uint8).tobytes() for row in mapped for c in range(3)}) == lo.size // 3
    real = equivalence.order_p_split
    monkeypatch.setattr(equivalence, "order_p_split", lambda c: (twice, other) if c.sig == hi else real(c))
    report = verify_equivalence(lo, hi, check_sets=True)
    assert (report.verdict, report.mode) == ("FAIL", "set-equality")
    assert report.detail == "composed witness failed set equality"


def test_a_word_equal_to_another_modulo_Y_fails_set_equality(monkeypatch):
    # condition (c), distinctness: word 7 of T_hi replaced by Phi(tau_3 + z_0).  Every mapped word is a distinct
    # member of Phi(C_lo), but two are equal modulo Y, so the coset of tau_7 is never reached
    lo, hi = sig(3, (2, 2)), sig(3, (1, 0, 1, 0))
    top, other = order_p_split(AdditiveCode.build(hi))
    witness = verify_equivalence(lo, hi, check_sets=False).witness
    taus = OdometerSpan(hi, other).words(np.arange(3 ** len(other)))
    taus[7] = (taus[3] + top[0]) % hi.params.modulus

    # on the held images: the mapped words are distinct members of Phi(C_lo), and words 7 and 3 differ by y_0
    lo_words = {row.tobytes() for row in build_gray_code(lo).words}
    mapped = witness(gray_matrix(hi.params, taus))
    assert len({row.tobytes() for row in mapped}) == len(taus)
    assert all(row.tobytes() in lo_words for row in mapped)
    y0 = witness(gray_matrix(hi.params, top[:1]))[0]
    assert np.array_equal((mapped[7].astype(np.int64) - mapped[3]) % 3, y0)

    def changed_transversal(code_sig, rows):
        assert code_sig == hi and np.array_equal(rows, other)
        yield 0, gray_matrix(hi.params, taus)

    monkeypatch.setattr(equivalence, "_gray_blocks", changed_transversal)
    report = verify_equivalence(lo, hi, check_sets=True)
    assert (report.verdict, report.mode) == ("FAIL", "set-equality")
    assert report.detail == "composed witness failed set equality"

    # the streamed oracle on the code T' + C_hi[p] that the changed stream stands for
    zs = OdometerSpan(hi, top).words(np.arange(3 ** len(top)))
    words = gray_matrix(hi.params, ((taus[:, None] + zs[None]) % hi.params.modulus).reshape(-1, hi.n))
    monkeypatch.setattr(streamed_set_check, "gray_chunks", lambda code: iter([(0, words)]))
    assert not streamed_set_equal(lo, hi, report.witness)


def off_the_pinned_positions(lo, blocks=False):
    """The first two coordinates of the lower member's Gray words that lie off positions 0 and p^i of their
    phi-blocks, where the locate reads no residue; with ``blocks``, in phi-blocks it reads nothing of."""
    width = lo.p ** (lo.s - 1)
    pinned = {0, *(lo.p**i for i in range(lo.s - 1))}
    read = set(construction._decode_plan(lo)[0].tolist()) if blocks else set()
    return [k for k in range(lo.gray_length) if k % width not in pinned and k // width not in read][:2]


@pytest.mark.parametrize("lo_ts,hi_ts", [((2, 2), (1, 0, 1, 0)), ((1, 1, 1), (1, 0, 1, 0)), ((3, 1), (1, 2, 0))])
def test_a_transposition_off_the_pinned_positions_fails_set_equality(lo_ts, hi_ts):
    # after the mapping, two lower coordinates that the locate never reads trade places, in the blocks it reads
    # or in others: every mapped word still decodes to the index of a member, but some are not its Gray word
    lo, hi = sig(3, lo_ts), sig(3, hi_ts)
    witness = verify_equivalence(lo, hi, check_sets=False).witness
    assert _maps_onto(AdditiveCode.build(lo), AdditiveCode.build(hi), witness) and streamed_set_equal(lo, hi, witness)
    for blocks in (False, True):
        swap = np.arange(lo.gray_length)
        a, b = off_the_pinned_positions(lo, blocks)
        swap[[a, b]] = [b, a]
        bad = Permutation(swap).compose(witness)
        assert not _maps_onto(AdditiveCode.build(lo), AdditiveCode.build(hi), bad)
        assert not streamed_set_equal(lo, hi, bad)


@pytest.mark.parametrize("p,lo_ts,hi_ts", [(3, (2, 2), (1, 0, 1, 0)), (3, (2, 1), (1, 1, 0)), (2, (2, 0, 2), (1, 1, 0, 1))])
def test_a_chain_check_refuses_a_gray_map_off_the_digits(p, lo_ts, hi_ts, monkeypatch, fresh_ring_caches):
    # the split of the higher member rests on its ring check and the located indices on the lower one's, so a
    # broken map is refused, not scanned: with both rings broken the higher is named, checked first; then the lower
    gray_module = importlib.import_module("ghcodes.gray")
    real = gray_module._phi_table_cached
    for broken in ((len(lo_ts), len(hi_ts)), (len(lo_ts),)):
        monkeypatch.setattr(gray_module, "_phi_table_cached", lambda q, s: (broken_phi if s in broken else real)(q, s))
        with pytest.raises(GHCodeError, match=f"Gray map of Z_{p}\\^{max(broken)} "):
            verify_equivalence(sig(p, lo_ts), sig(p, hi_ts), check_sets=True)


def _check_peak(lo, hi):
    """The verdict and tracemalloc peak of a warm set-equality check."""
    verify_equivalence(lo, hi, check_sets=True)  # fill the phi tables first
    tracemalloc.start()
    try:
        report = verify_equivalence(lo, hi, check_sets=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_streamed_check_holds_neither_image():
    # no Gray image and no additive matrix of either member: at t = 6 each
    # image is 2187 x 729 bytes (1.5 MiB), at t = 7 6561 x 2187 bytes (13.7 MiB)
    for lo in (sig(3, (3, 1)), sig(3, (3, 2))):
        hi = chain_members(lo).members[-1]
        report, peak = _check_peak(lo, hi)
        assert report.passed and report.mode == "set-equality"
        assert peak <= 4 * 2**20, (lo.ts, peak)


@pytest.mark.parametrize("rep", [(3, 1), (2, 3), (2, 0, 1), (3, 2), (2, 4), (2, 0, 2)])
def test_set_check_estimate_bounds_its_peak(rep):
    # every pair of the chain at p = 3, t = 6 and 7: the estimate holds the
    # peak and is within 4x of it
    members = chain_members(sig(3, rep)).members
    assert members[0].t in (6, 7) and len(members) > 1
    for i, lo in enumerate(members):
        for hi in members[i + 1 :]:
            report, peak = _check_peak(lo, hi)
            assert report.mode == "set-equality"
            estimate = set_check_bytes(lo, hi)
            assert peak <= estimate <= 4 * peak, (lo.ts, hi.ts, peak, estimate)


@pytest.mark.parametrize("p,lo_ts,hi_ts", [(2, (1, 11), (1, 0, 10)), (2, (1, 12), (1, 0, 11)), (3, (1, 6), (1, 0, 5))])
def test_set_check_estimate_bounds_the_peak_of_linear_chain_pairs(p, lo_ts, hi_ts):
    # T_hi has p^2 words and Y sum t_i rows, so building both codes makes most of the peak
    report, peak = _check_peak(sig(p, lo_ts), sig(p, hi_ts))
    assert report.mode == "set-equality"
    estimate = set_check_bytes(sig(p, lo_ts), sig(p, hi_ts))
    assert peak <= estimate <= 4 * peak, (peak, estimate)


@pytest.mark.slow
def test_t9_chain_pair_passes_set_equality_under_the_default_budget(capsys):
    from ghcodes import cli

    status = cli.main(["equiv-check", "--p", "3", "--type-a", "3,4", "--type-b", "1,0,0,0,2,0", "--sets", "always"])
    doc = json.loads(capsys.readouterr().out)
    assert status == 0
    assert (doc["verdict"], doc["mode"], doc["positions"]) == ("PASS", "set-equality", [1, 5])
