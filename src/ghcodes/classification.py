"""Counting, bounding and tabulating the codes by type and by chain.

X(t, s) counts types (t_1, ..., t_s) with t_1 >= 1 and
sum (s-i+1) t_i = t+1, i.e. all length-p^t codes at one ring level.
Counting each chain once instead collapses the levels: only
representatives (t_1 >= 2) matter and those live at s <= (t+1)/2, which
is what the sharper bounds exploit.  Class-count bounds additionally
assume that inequivalent representatives at one level stay inequivalent,
the working hypothesis these tables are built on; where computed values
disagree with previously reported ones, the report says so instead of
silently adopting either side.

The census walks every type of one length, locates it in its chain,
marks the linear ones (a single equivalence class per length) and can
attach (rank, kernel) pairs of each class's representative, computed by
``invariants.structural_pair`` without holding its Gray image, one at a
time in the calling thread with the whole budget.  A representative with
order-p rows (t_s >= 1) is computed from the shorter code without them
(``_invariants_for_rep``).  A representative whose computation is over
the budget (``CapacityError``) is marked skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .construction import DEFAULT_BUDGET_BYTES, validate_type
from .errors import CapacityError, InputError, NoSecondRow
from .equivalence import _chain_location
from .invariants import structural_pair
from .ring import RingParams


def _check_tp(t: int, p: int) -> None:
    if t < 1:
        raise InputError(f"t must be >= 1, got {t}")
    RingParams(p, 1)  # p must be prime


# ---------------------------------------------------------------------------
# counting types
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _partitions_max_part(total: int, largest: int) -> int:
    """Partitions of `total` into parts of size <= largest."""
    if total < 0:
        return 0
    if total == 0:
        return 1
    if largest == 0:
        return 0
    return _partitions_max_part(total, largest - 1) + _partitions_max_part(total - largest, largest)


def enumerate_types(t: int, s: int) -> Iterator[tuple[int, ...]]:
    """All (t_1, ..., t_s) with t_1 >= 1 and sum (s-i+1) t_i = t + 1, in increasing lexicographic order.

    t_s, of weight 1, takes what the others leave, so an odometer runs over
    (t_1, ..., t_{s-1}): the next type raises the last entry that what is
    left (with the entries after it zeroed) still pays for, and zeroes those after it.
    """
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    if s == 1:
        if t >= 0:
            yield (t + 1,)
        return
    head, left = [1] + [0] * (s - 2), t + 1 - s  # the least head: t_1 = 1, t_2 .. t_{s-1} = 0
    if left < 0:
        return
    while True:
        yield (*head, left)
        i = s - 2
        while i >= 0 and left < s - i:
            left += (s - i) * head[i]
            head[i] = 0
            i -= 1
        if i < 0:
            return
        head[i] += 1
        left -= s - i


def count_types(t: int, s: int) -> int:
    """X(t, s): number of types of Gray length p^t at ring level s."""
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    return _partitions_max_part(t + 1 - s, s)


def count_representatives(t: int, s: int, p: int) -> int:
    """Types that head a chain: t_1 >= 2, except t_1 >= 3 for p = 2, s = 2.

    For p = 2 the level-2 types (2, m) are linear and merge with the
    linear class, so they are not counted as distinct representatives.
    """
    _check_tp(t, p)
    if s < 2:
        raise InputError(f"representatives live at s >= 2, got {s}")
    if p == 2 and s == 2:
        return _partitions_max_part(t + 1 - 3 * s, s)
    return _partitions_max_part(t + 1 - 2 * s, s)


# ---------------------------------------------------------------------------
# linearity by type
# ---------------------------------------------------------------------------


def is_linear_type(p: int, ts: tuple[int, ...]) -> bool:
    """Whether the Gray image of this type is a linear p-ary code.

    For every p the types (1, 0, ..., 0, m) are linear; for p = 2 the
    types (2, m) at s = 2 and (1, 0, ..., 0, 1, m) also are (one chain,
    same class).  Everything else is nonlinear.
    """
    s = len(ts)
    if s == 1:
        return True
    if ts[0] == 1 and all(v == 0 for v in ts[1 : s - 1]):
        return True
    if p == 2:
        if s == 2 and ts[0] == 2:
            return True
        if s >= 3 and ts[0] == 1 and ts[s - 2] == 1 and all(v == 0 for v in ts[1 : s - 2]):
            return True
    return False


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    p: int
    t: int
    s: int
    ts: tuple[int, ...]
    representative: tuple[int, ...]
    position: int
    chain_len: int
    linear: bool
    r: "int | None" = None
    k: "int | None" = None
    skipped: bool = False


@dataclass(frozen=True)
class Census:
    p: int
    t: int
    rows: tuple[CensusRow, ...]
    class_count: int
    skipped_reps: tuple[tuple[int, ...], ...]


def _locate(ts: tuple[int, ...], t: int) -> tuple[tuple[int, ...], int, int]:
    """(representative, position, chain length) for one type, by type algebra alone."""
    try:
        rep, position = _chain_location(ts)
    except NoSecondRow:
        # (1, 0, ..., 0): tail of the linear family's chain
        return (t,), len(ts), t + 1
    return rep, position, rep[-1] + 1


def _invariants_for_rep(p: int, rep: tuple[int, ...], budget_bytes: int) -> "tuple[int, int] | None":
    """(rank, kernel dimension) of the representative, or None where it is over the budget.

    A type with t_s >= 1 gets the pair of (t_1, ..., t_{s-1}, 0), a code
    p^(t_s) times shorter, plus (t_s, t_s); the budget is checked for that
    smaller type.

    Adding one order-p row adds (1, 1).  The order-p rows come last in the
    product construction, so appending one to a code C of length n gives C'
    of length pn whose words are (c + z*l*p^(s-1) . 1)_{z in [0, p)} for c
    in C and l in Z_p: the new columns are (1, g, h) with h in
    p^(s-1) Z_{p^s}.  As phi(v + p^(s-1) w) = phi(v) + w . 1,
    Phi(C') = R(Phi(C)) + <w*>, with R the p-fold repetition and
    w* = (0 . 1, 1 . 1, ..., (p-1) . 1).  R is linear and injective, and
    w* lies outside the image of R (its blocks differ), so the span of
    Phi(C') is R(span Phi(C)) + <w*>, a direct sum, and r' = r + 1.
    R(a) + z w* + Phi(C') = R(a + Phi(C)) + <w*>, which is Phi(C') iff
    a + Phi(C) = Phi(C): the kernel of Phi(C') is R(ker Phi(C)) + <w*>,
    and k' = k + 1.  This generalises the coset-of-kernel argument of
    Phelps, Rifa and Villanueva for Z4-linear codes (IEEE Trans. IT 52(1),
    2006).
    """
    *head, top = rep
    try:
        r, k = structural_pair(validate_type(p, (*head, 0)), budget_bytes)
    except CapacityError:
        return None
    return r + top, k + top


def census(
    t: int,
    p: int,
    s: "int | None" = None,
    with_invariants: bool = False,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> Census:
    """Classify every type of Gray length p^t (optionally at one level s).

    Rows carry the chain location and the linear flag; with_invariants
    attaches (rank, kernel dimension) per equivalence class, computed on
    the representative when it fits the budget and marked skipped
    otherwise.  Linear classes get (t+1, t+1) without computation.
    """
    _check_tp(t, p)
    levels = range(2, t + 2) if s is None else [s]
    located: list[tuple[tuple[int, ...], int, tuple[int, ...], int, int, bool]] = []
    for lvl in levels:
        if not 1 <= lvl <= t + 1:
            raise InputError(f"level s={lvl} impossible for t={t}")
        for ts in enumerate_types(t, lvl):
            rep, pos, clen = _locate(ts, t)
            located.append((ts, lvl, rep, pos, clen, is_linear_type(p, ts)))

    class_ids = {("linear",) if lin else rep for _, _, rep, _, _, lin in located}
    nonlinear_reps = sorted({rep for _, _, rep, _, _, lin in located if not lin})

    results = {rep: _invariants_for_rep(p, rep, budget_bytes) for rep in nonlinear_reps} if with_invariants else {}

    rows = []
    for ts, lvl, rep, pos, clen, lin in located:
        pair = (t + 1, t + 1) if lin else results.get(rep)
        r, k = pair if with_invariants and pair else (None, None)
        rows.append(CensusRow(p, t, lvl, ts, rep, pos, clen, lin, r, k, with_invariants and pair is None))
    skipped_reps = [rep for rep in nonlinear_reps if with_invariants and results.get(rep) is None]

    rows.sort(key=lambda row: (row.s, row.ts))
    return Census(p, t, tuple(rows), len(class_ids), tuple(skipped_reps))


# ---------------------------------------------------------------------------
# isolated types
# ---------------------------------------------------------------------------


def isolated_types(t_max: int, p: int) -> dict[int, list[tuple[int, ...]]]:
    """Chains of length one, i.e. representatives with trailing entry 0.

    Returns {t: [types]} for every t <= t_max with at least one hit; the
    codes of these types are equivalent to no other type's Gray image.
    """
    _check_tp(t_max, p)
    out: dict[int, list[tuple[int, ...]]] = {}
    for t in range(1, t_max + 1):
        hits = []
        for s in range(2, (t + 1) // 2 + 1):
            for ts in enumerate_types(t, s):
                if ts[0] >= 2 and ts[-1] == 0 and not is_linear_type(p, ts):
                    hits.append(ts)
        if hits:
            out[t] = sorted(hits, key=lambda v: (len(v), v))
    return out


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsRow:
    t: int
    types_all_s: int
    classes_all_s: int
    types_reps: int
    classes_reps: int
    lower_rk: "int | None" = None
    lower_rk_partial: bool = False


@dataclass(frozen=True)
class BoundsReport:
    p: int
    rows: tuple[BoundsRow, ...]
    assumption: str
    discrepancies: tuple[str, ...]


def _per_level_classes(t: int, s: int, p: int) -> int:
    """The assumed count of classes at one level, minus nothing for p odd."""
    x = count_types(t, s)
    return x - 1 if p == 2 else x


def _all_s_levels(t: int, p: int) -> range:
    # levels above these hold only linear types
    return range(2, t - 1) if p == 2 else range(2, t)


def bound_types_all_s(t: int, p: int) -> int:
    """Upper bound counting nonlinear types once per level."""
    _check_tp(t, p)
    drop = 2 if p == 2 else 1  # linear types per level
    return 1 + sum(max(count_types(t, s) - drop, 0) for s in _all_s_levels(t, p))


def bound_classes_all_s(t: int, p: int) -> int:
    """Class-count version of :func:`bound_types_all_s`."""
    _check_tp(t, p)
    return 1 + sum(max(_per_level_classes(t, s, p) - 1, 0) for s in _all_s_levels(t, p))


def bound_types_reps(t: int, p: int) -> int:
    """Upper bound counting only chain representatives, s <= (t+1)/2."""
    _check_tp(t, p)
    return 1 + sum(count_representatives(t, s, p) for s in range(2, (t + 1) // 2 + 1))


def bound_classes_reps(t: int, p: int) -> int:
    """Class-count bound on the representative range s <= (t+1)/2."""
    _check_tp(t, p)
    return 1 + sum(max(_per_level_classes(t, s, p) - 1, 0) for s in range(2, (t + 1) // 2 + 1))


# Previously reported values for p = 3, kept verbatim for cross-checking;
# the report flags any disagreement with freshly computed numbers.
_REPORTED_P3 = {
    "lower_rk": {3: 2, 4: 2, 5: 4, 6: 4, 7: 7, 8: 8, 9: 12, 10: 14},
    "types_reps": {3: 2, 4: 2, 5: 4, 6: 4, 7: 7, 8: 8, 9: 12, 10: 14},
    "classes_reps": {3: 2, 4: 2, 5: 5, 6: 6, 7: 11, 8: 15, 9: 26, 10: 33},
    "all_s": {3: 2, 4: 2, 5: 6, 6: 9, 7: 15, 8: 22, 9: 33, 10: 46},
}


def bounds_report(
    p: int,
    t_min: int,
    t_max: int,
    with_lower: bool = False,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> BoundsReport:
    """All four bound families over a range of t, with cross-checks.

    with_lower also computes the (rank, kernel) lower bound: the number of
    distinct invariant pairs over the classes whose representatives fit
    the budget (a partial scan still lower-bounds the class count).
    """
    _check_tp(t_max, p)
    if t_min < 3:
        raise InputError(f"bounds need t >= 3, got t_min={t_min}")
    if t_min > t_max:
        raise InputError("empty t range")
    rows = []
    discrepancies = []
    for t in range(t_min, t_max + 1):
        lower = None
        partial = False
        if with_lower:
            c = census(t, p, with_invariants=True, budget_bytes=budget_bytes)
            pairs = {(row.r, row.k) for row in c.rows if row.r is not None}
            lower = len(pairs)
            partial = bool(c.skipped_reps)
        row = BoundsRow(
            t,
            bound_types_all_s(t, p),
            bound_classes_all_s(t, p),
            bound_types_reps(t, p),
            bound_classes_reps(t, p),
            lower,
            partial,
        )
        rows.append(row)
        if p == 3:
            checks = [
                ("types_reps", row.types_reps, _REPORTED_P3["types_reps"].get(t)),
                ("classes_reps", row.classes_reps, _REPORTED_P3["classes_reps"].get(t)),
                ("types_all_s", row.types_all_s, _REPORTED_P3["all_s"].get(t)),
                ("classes_all_s", row.classes_all_s, _REPORTED_P3["all_s"].get(t)),
            ]
            if lower is not None and not partial:
                checks.append(("lower_rk", lower, _REPORTED_P3["lower_rk"].get(t)))
            for name, got, want in checks:
                if want is not None and got != want:
                    discrepancies.append(
                        f"t={t} {name}: computed {got}, previously reported {want}"
                    )
    assumption = (
        "class-count bounds assume distinct representatives at one level are inequivalent"
        + ("; for p=2 the two linear types per level share one class" if p == 2 else "")
    )
    return BoundsReport(p, tuple(rows), assumption, tuple(discrepancies))
