"""Type enumeration, census, isolated types and the counting bounds."""

import itertools
from collections import Counter

import pytest

from ghcodes import classification, cli
from ghcodes.classification import (
    bound_classes_all_s,
    bound_classes_reps,
    bound_types_all_s,
    bound_types_reps,
    bounds_report,
    census,
    count_representatives,
    count_types,
    enumerate_types,
    is_linear_type,
    isolated_types,
)
from ghcodes.construction import DEFAULT_BUDGET_BYTES, validate_type
from ghcodes.equivalence import chain_members, chain_of
from ghcodes.errors import CapacityError, InputError
from ghcodes.invariants import structural_bytes, structural_pair


def brute_types(t, s):
    """All (t_1, ..., t_s) with t_1 >= 1 and sum (s-i+1) t_i = t+1."""
    target = t + 1
    bounds = [range(0, target // (s - i) + 1) for i in range(s)]
    out = []
    for ts in itertools.product(*bounds):
        if ts[0] >= 1 and sum((s - i) * v for i, v in enumerate(ts)) == target:
            out.append(ts)
    return sorted(out)


def recursive_types(t, s):
    """The types in the order of one recursive generator frame per prefix: each entry from its least value up."""

    def rec(prefix, remaining, weight):
        if weight == 0:
            if remaining == 0:
                yield prefix
            return
        lo = 1 if not prefix else 0
        for v in range(lo, remaining // weight + 1):
            yield from rec(prefix + (v,), remaining - v * weight, weight - 1)

    yield from rec((), t + 1, s)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_types_lists_the_recursive_oracle_in_its_order():
    for t in range(21):
        for s in range(1, t + 2):
            assert list(enumerate_types(t, s)) == list(recursive_types(t, s)), (t, s)


@pytest.mark.parametrize("t", range(1, 11))
def test_enumerate_types_matches_brute_force(t):
    for s in range(1, t + 2):
        got = sorted(enumerate_types(t, s))
        want = brute_types(t, s)
        assert got == want
        assert count_types(t, s) == len(want)


def test_no_types_above_level_t_plus_one():
    assert count_types(4, 6) == 0
    assert list(enumerate_types(4, 6)) == []


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("t", range(3, 11))
def test_count_representatives_matches_brute_force(p, t):
    for s in range(2, t + 2):
        floor = 3 if (p == 2 and s == 2) else 2
        want = len([ts for ts in brute_types(t, s) if ts[0] >= floor])
        assert count_representatives(t, s, p) == want


def test_bad_arguments_rejected():
    assert count_types(0, 2) == 0  # nothing to count, not an error
    with pytest.raises(InputError):
        census(0, 3)
    with pytest.raises(InputError):
        census(4, 9)  # p must be prime


# ---------------------------------------------------------------------------
# linearity of types
# ---------------------------------------------------------------------------


def test_linear_types_p3():
    assert is_linear_type(3, (4,))
    assert is_linear_type(3, (1, 2))
    assert is_linear_type(3, (1, 0, 2))
    assert is_linear_type(3, (1, 0, 0, 1))
    assert not is_linear_type(3, (2, 1))
    assert not is_linear_type(3, (1, 1, 0))
    assert not is_linear_type(3, (1, 1, 1))
    assert not is_linear_type(3, (2, 2))


def test_linear_types_p2_extras():
    assert is_linear_type(2, (2, 3))
    assert is_linear_type(2, (1, 1, 2))
    assert is_linear_type(2, (1, 0, 1, 1))
    assert is_linear_type(2, (1, 1, 0))  # (1, 1, m) family with m = 0
    assert not is_linear_type(2, (3, 0))
    assert not is_linear_type(2, (2, 1, 0))
    assert not is_linear_type(3, (2, 3))  # the shortcut is binary-only


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_t4_p3_with_invariants():
    result = census(4, 3, with_invariants=True)
    assert result.class_count == 2
    assert result.skipped_reps == ()
    by_type = {row.ts: row for row in result.rows}
    assert set(by_type) == {(1, 3), (2, 1), (1, 0, 2), (1, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0, 0)}

    assert (by_type[(2, 1)].r, by_type[(2, 1)].k) == (6, 3)
    assert (by_type[(1, 1, 0)].r, by_type[(1, 1, 0)].k) == (6, 3)
    assert by_type[(2, 1)].representative == (2, 1)
    assert by_type[(1, 1, 0)].representative == (2, 1)
    assert by_type[(1, 1, 0)].position == 2
    for ts in [(1, 3), (1, 0, 2), (1, 0, 0, 1), (1, 0, 0, 0, 0)]:
        row = by_type[ts]
        assert row.linear
        assert (row.r, row.k) == (5, 5)


def test_census_rows_are_sorted_and_consistent():
    result = census(6, 3)
    assert [(r.s, r.ts) for r in result.rows] == sorted((r.s, r.ts) for r in result.rows)
    for row in result.rows:
        assert row.t == 6
        assert row.r is None and row.k is None


def test_census_single_level():
    result = census(5, 3, s=2)
    assert {row.ts for row in result.rows} == {(1, 4), (2, 2), (3, 0)}
    assert result.class_count == 3  # linear, (2,2), (3,0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_census_locates_every_type_as_chain_of_and_chain_members_do(p):
    # the census places types by tuple algebra alone; the reference validates each type, locates it with
    # chain_of and finds it at that position of chain_members.  (1, 0, ..., 0) has no second row (chain_of
    # raises): it is the last member of the chain of (t,).  A linear type is one of the linear family's
    # chain, whose representative has a single entry, or at p = 2 one of a chain (2, m).
    for t in range(2, 13):
        for row in census(t, p).rows:
            if row.ts[0] == 1 and not any(row.ts[1:]):
                rep, position = validate_type(p, (t,)), t + 1
            else:
                located = chain_of(validate_type(p, row.ts))
                rep, position = located.representative, located.position
            chain = [member.ts for member in chain_members(rep)]
            assert chain[position - 1 : position] == [row.ts], (p, row.ts, rep.ts, position)
            linear = rep.s == 1 or (p == 2 and rep.s == 2 and rep.ts[0] == 2)
            assert (row.representative, row.position, row.chain_len, row.linear) == (rep.ts, position, len(chain), linear)


@pytest.mark.parametrize("t,want", [(4, 1), (5, 2), (6, 2)])
def test_binary_level2_class_counts(t, want):
    assert census(t, 2, s=2).class_count == want == (t - 1) // 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_census_class_count_equals_representative_bound(p):
    for t in range(3, 13):
        assert census(t, p).class_count == bound_types_reps(t, p)


T9_RK = {
    (2, 0, 0, 0, 0): (96, 2),
    (2, 0, 0, 2): (36, 4),
    (2, 0, 1, 0): (64, 3),
    (2, 0, 4): (17, 6),
    (2, 1, 2): (27, 5),
    (2, 2, 0): (43, 4),
    (2, 6): (11, 8),
    (3, 0, 1): (49, 4),
    (3, 4): (15, 7),
    (4, 2): (23, 6),
    (5, 0): (36, 5),
}


def test_t9_census_fills_every_class_under_the_default_budget():
    # no Gray image is held (one would be 1.08 GiB): about a second, in about 10 MiB above the baseline
    result = census(9, 3, with_invariants=True)
    assert result.skipped_reps == ()
    assert {row.representative: (row.r, row.k) for row in result.rows if not row.linear} == T9_RK
    assert len({(row.r, row.k) for row in result.rows}) == 12


# ---------------------------------------------------------------------------
# isolated types
# ---------------------------------------------------------------------------


def test_isolated_types_p3():
    got = isolated_types(10, 3)
    assert got[3] == [(2, 0)]
    assert 4 not in got  # no isolated types there
    assert got[5] == [(3, 0), (2, 0, 0)]
    assert 6 not in got
    assert got[7] == [(4, 0), (2, 1, 0), (2, 0, 0, 0)]
    assert got[8] == [(3, 0, 0)]
    assert got[9] == [(5, 0), (2, 2, 0), (2, 0, 1, 0), (2, 0, 0, 0, 0)]
    assert got[10] == [(3, 1, 0), (2, 1, 0, 0)]


def test_isolated_types_have_trailing_zero_and_second_row():
    for t, hits in isolated_types(12, 3).items():
        for ts in hits:
            assert ts[0] >= 2
            assert ts[-1] == 0
            assert not is_linear_type(3, ts)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

P3_TYPES_ALL_S = {3: 2, 4: 3, 5: 6, 6: 9, 7: 15, 8: 22, 9: 33, 10: 46}
P3_TYPES_REPS = {3: 2, 4: 2, 5: 4, 6: 4, 7: 7, 8: 8, 9: 12, 10: 14}
P3_CLASSES_REPS = {3: 2, 4: 2, 5: 5, 6: 6, 7: 12, 8: 15, 9: 26, 10: 33}

P2_TYPES_ALL_S = {3: 1, 4: 1, 5: 3, 6: 5, 7: 10, 8: 16, 9: 26, 10: 38, 11: 57}
P2_TYPES_REPS = {3: 1, 4: 1, 5: 3, 6: 3, 7: 6, 8: 7, 9: 11, 10: 13, 11: 20}
P2_CLASSES_REPS = {3: 1, 4: 1, 5: 3, 6: 4, 7: 9, 8: 12, 9: 22, 10: 29, 11: 48}


def test_bounds_p3_golden():
    for t in range(3, 11):
        assert bound_types_all_s(t, 3) == P3_TYPES_ALL_S[t]
        assert bound_classes_all_s(t, 3) == P3_TYPES_ALL_S[t]
        assert bound_types_reps(t, 3) == P3_TYPES_REPS[t]
        assert bound_classes_reps(t, 3) == P3_CLASSES_REPS[t]


def test_bounds_p2_golden():
    for t in range(3, 12):
        assert bound_types_all_s(t, 2) == P2_TYPES_ALL_S[t]
        assert bound_types_reps(t, 2) == P2_TYPES_REPS[t]
        assert bound_classes_reps(t, 2) == P2_CLASSES_REPS[t]


def test_representative_bound_never_exceeds_all_levels_bound():
    for p in (2, 3, 5):
        for t in range(3, 13):
            assert bound_types_reps(t, p) <= bound_types_all_s(t, p)
            assert bound_classes_reps(t, p) <= bound_classes_all_s(t, p)


def test_bounds_report_flags_known_discrepancies():
    report = bounds_report(3, 3, 10)
    assert [row.t for row in report.rows] == list(range(3, 11))
    assert sorted(report.discrepancies) == [
        "t=4 classes_all_s: computed 3, previously reported 2",
        "t=4 types_all_s: computed 3, previously reported 2",
        "t=7 classes_reps: computed 12, previously reported 11",
    ]
    assert "distinct representatives" in report.assumption


def test_bounds_report_p2_has_no_reference_column():
    report = bounds_report(2, 3, 8)
    assert report.discrepancies == ()


def test_bounds_flag_a_lower_bound_unlike_the_reported_one(monkeypatch, capsys):
    monkeypatch.setitem(classification._REPORTED_P3["lower_rk"], 4, 3)
    argv = ["tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "4", "--with-lower"]
    assert cli.main(argv) == 0
    assert "note: t=4 lower_rk: computed 2, previously reported 3" in capsys.readouterr().out.splitlines()
    # a partial lower bound is never compared
    assert cli.main([*argv, "--budget-bytes", "1"]) == 0
    assert "lower_rk" not in capsys.readouterr().out


T10_RK = {
    (2, 0, 0, 0, 1): (97, 3),
    (2, 0, 0, 3): (37, 5),
    (2, 0, 1, 1): (65, 4),
    (2, 0, 5): (18, 7),
    (2, 1, 0, 0): (121, 3),
    (2, 1, 3): (28, 6),
    (2, 2, 1): (44, 5),
    (2, 7): (12, 9),
    (3, 0, 2): (50, 5),
    (3, 1, 0): (82, 4),
    (3, 5): (16, 8),
    (4, 3): (24, 7),
    (5, 1): (37, 6),
}


def test_t10_lower_bound_is_partial_where_a_basis_outgrows_the_budget():
    # a budget of the largest structural estimate leaves too little for the bases of some classes:
    # those are skipped, the others get their pairs, and the lower bound counts those and the linear class
    budget = max(structural_bytes(validate_type(3, rep)) for rep in T10_RK)
    c = census(10, 3, with_invariants=True, budget_bytes=budget)
    got = {row.representative: (row.r, row.k) for row in c.rows if row.r is not None and not row.linear}
    assert c.skipped_reps and got and set(c.skipped_reps) | set(got) == set(T10_RK)
    assert got.items() <= T10_RK.items()
    # (3,5) and (4,3) are over this budget on their own codes; their pairs come from (3,0) and (4,0)
    assert c.skipped_reps == ((5, 1),) and {(3, 5), (4, 3)} <= got.keys()
    with pytest.raises(CapacityError):
        structural_pair(validate_type(3, (3, 5)), budget)
    (row,) = bounds_report(3, 10, 10, with_lower=True, budget_bytes=budget).rows
    assert (row.lower_rk, row.lower_rk_partial) == (len(set(got.values())) + 1, True)


REDUCTION_T_MAX = {2: 12, 3: 8, 5: 5}  # per p, the lengths p^t of the reduction's differential test


@pytest.mark.parametrize("p", sorted(REDUCTION_T_MAX))
def test_top_row_reduction_matches_the_direct_pair_on_every_type_with_order_p_rows(p):
    # every type with t_s >= 1, linear or not: the pair of (t_1, ..., t_{s-1}, 0) plus (t_s, t_s) is the
    # pair structural_pair computes on the type's own code
    checked = 0
    for t in range(1, REDUCTION_T_MAX[p] + 1):
        for s in range(2, t + 2):
            for ts in enumerate_types(t, s):
                if ts[-1]:
                    want = structural_pair(validate_type(p, ts))
                    assert classification._invariants_for_rep(p, ts, DEFAULT_BUDGET_BYTES) == want, ts
                    checked += 1
    assert checked == {2: 259, 3: 58, 5: 13}[p]


def test_census_computes_each_representative_on_its_reduced_type_every_call(monkeypatch):
    # one structural_pair a nonlinear representative, on (t_1, ..., t_{s-1}, 0); nothing is kept between
    # calls, so an identical second census computes them all again
    computed = Counter()

    def counted(sig, budget_bytes):
        computed[sig.ts] += 1
        return structural_pair(sig, budget_bytes)

    monkeypatch.setattr(classification, "structural_pair", counted)
    first = census(8, 3, with_invariants=True)
    reps = {row.representative for row in first.rows if not row.linear}
    reduced = Counter((*rep[:-1], 0) for rep in reps)
    assert computed == reduced and any(rep[-1] for rep in reps)
    assert census(8, 3, with_invariants=True) == first
    assert computed == reduced + reduced


@pytest.mark.slow
def test_t9_and_t10_lower_bounds_are_complete_under_the_default_budget():
    # the paper's claim that the (r, k) lower bound meets types_reps up to t = 10
    rows = census(10, 3, with_invariants=True).rows
    assert {row.representative: (row.r, row.k) for row in rows if not row.linear} == T10_RK
    report = bounds_report(3, 9, 10, with_lower=True)
    assert [(row.t, row.lower_rk, row.lower_rk_partial) for row in report.rows] == [(9, 12, False), (10, 14, False)]
    assert [row.types_reps for row in report.rows] == [12, 14]
    assert report.discrepancies == ()
