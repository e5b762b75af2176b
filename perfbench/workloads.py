"""Workload case lists and the correctness gate for every case.

A case is one ``ghcodes`` command line, exactly as a user would type it,
plus a check that parses the command's standard output and compares it
with the expected result.  Expected values come from the frozen tables in
``tests/goldens.py`` or from closed forms (pair counts, minimum distance,
counting bounds), never from a second run of the same code path.

Every ``classify``/``tables`` case is pinned to ``--threads 1`` or runs
no worker at all, so one case is one single-threaded computation.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Check = Callable[[str], "str | None"]  # stdout -> failure reason, None when correct


@dataclass(frozen=True)
class Case:
    """One CLI invocation, its output check and the largest code it materializes."""

    argv: tuple[str, ...]
    check: Check
    code: "tuple[int, int] | None" = None  # (p, t) of the largest Gray image built, if any

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @property
    def gray_bytes(self) -> int:
        """Computed size of the largest Gray matrix: p^(t+1) words of p^t bytes."""
        if self.code is None:
            return 0
        p, t = self.code
        return p ** (t + 1) * p**t


def run_cli(argv) -> "tuple[float, int | str, str, str]":
    """Run one command in this process: (seconds, exit code, stdout, stderr)."""
    from ghcodes import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
        except Exception:  # any crash is a failed case, recorded with its traceback
            rc = "exception"
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def judge(case: Case, rc, out: str, err: str) -> "str | None":
    """Failure reason of one run of a case, None when it is correct.

    A non-zero exit code (3 is the capacity error) fails the case, with the
    message the command printed on stderr.
    """
    if rc != 0:
        return f"exit code {rc}: {err.strip()}"
    try:
        return case.check(out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


def load_goldens(root: Path):
    """Import the frozen reference tables of the test suite from a checkout."""
    path = root / "tests" / "goldens.py"
    spec = importlib.util.spec_from_file_location("ghcodes_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _type_arg(ts) -> str:
    return ",".join(map(str, ts))


def _gray_t(ts) -> int:
    s = len(ts)
    return sum((s - i) * v for i, v in enumerate(ts)) - 1


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_census_rk(t: int, expected: "dict[tuple[int, ...], tuple[int, int]]") -> Check:
    """CSV census with invariants: linear rows carry (t+1, t+1), the nonlinear
    rows are exactly the expected types with their expected (r, k)."""

    def check(out: str) -> "str | None":
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {}
        for row in rows:
            ts = tuple(int(v) for v in row["type"].split(","))
            if row["r"] == "skipped":
                return f"type {ts} skipped"
            r, k = int(row["r"]), int(row["k"])
            if row["linear"] == "true":
                if (r, k) != (t + 1, t + 1):
                    return f"linear type {ts}: (r,k)=({r},{k}), expected ({t + 1},{t + 1})"
            else:
                got[ts] = (r, k)
        if got != expected:
            diff = sorted(set(got.items()) ^ set(expected.items()))
            return f"nonlinear (type, (r,k)) rows differ from goldens: {diff}"
        return None

    return check


def check_invariants(r: int, k: int) -> Check:
    want = f"r={r} k={k} linear=false"

    def check(out: str) -> "str | None":
        return None if out.strip() == want else f"got {out.strip()!r}, expected {want!r}"

    return check


def check_verify(mode: str, pairs: int, min_distance: "int | None") -> Check:
    """GH PASS with the asked pair count and, if asked, the exact minimum distance."""
    lines = [f"gh PASS mode={mode} pairs={pairs}"]
    if min_distance is not None:
        lines.append(f"min_distance {min_distance} expected {min_distance}")

    def check(out: str) -> "str | None":
        got = out.strip().splitlines()
        return None if got == lines else f"got {got}, expected {lines}"

    return check


def check_equiv(rep, positions: tuple[int, int], mode: str, length: int) -> Check:
    """PASS in the expected mode, and the witness is a permutation of 1..length."""

    def check(out: str) -> "str | None":
        doc = json.loads(out)
        if doc["verdict"] != "PASS" or doc["mode"] != mode:
            return f"verdict {doc['verdict']} mode {doc['mode']}, expected PASS {mode}"
        if doc["representative"] != list(rep) or doc["positions"] != list(positions):
            return f"representative/positions {doc['representative']}/{doc['positions']}"
        witness = doc["witness"]
        if witness is None or len(witness) != length or sorted(witness) != list(range(1, length + 1)):
            return f"witness is not a permutation of 1..{length}"
        return None

    return check


def check_class_count(expected: int) -> Check:
    def check(out: str) -> "str | None":
        got = json.loads(out)["class_count"]
        return None if got == expected else f"class_count {got}, expected {expected}"

    return check


def check_bounds(rows: int, notes: "list[str]") -> Check:
    """The bounds table has one row per t and exactly the known note lines."""

    def check(out: str) -> "str | None":
        lines = out.strip().splitlines()
        data = [ln for ln in lines[1:] if ln.strip()[:1].isdigit()]
        got_notes = [ln for ln in lines if ln.startswith("note: ")]
        if len(data) != rows:
            return f"{len(data)} table rows, expected {rows}"
        return None if got_notes == notes else f"notes {got_notes}, expected {notes}"

    return check


def check_lines(expected: "list[str]") -> Check:
    def check(out: str) -> "str | None":
        got = out.strip().splitlines()
        return None if got == expected else f"got {got}, expected {expected}"

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Why each workload exists and what a change to one layer should do to it.
# Later performance work cites these names.
NOTES = {
    "rk_census": {
        "why": "rank, kernel and the membership index do most of the work: p=3 census with "
        "(r,k) for t=5,6 and the largest-rank t=7 code through `invariants`",
        "moves": ["invariants.rank_s", "invariants.kernel_s", "construction.lookup_s", "construction.index_s"],
        "leaves": ["construction.gh_s", "gray.permute_s", "equivalence.witness_s"],
    },
    "gh_verify": {
        "why": "the GH difference/minimum-distance layer alone: many small exhaustive checks "
        "plus one big seeded sampled check; no rank, kernel, index or witness work",
        "moves": ["construction.gh_s", "construction.min_distance_s"],
        "leaves": ["invariants.rank_s", "invariants.kernel_s", "construction.lookup_s", "gray.permute_s"],
    },
    "chains": {
        "why": "witness composition, column scatter of a t=8 Gray image (beyond L3) and one bulk "
        "all-hit membership query per code, plus long JSON witnesses and pure type algebra",
        "moves": ["gray.permute_s", "gray.expand_s", "construction.lookup_s", "equivalence.witness_s", "cli.self_s"],
        "leaves": ["invariants.rank_s", "invariants.kernel_s", "construction.gh_s"],
    },
}

GH_SAMPLED_PAIRS = 200_000
GH_EXHAUSTIVE_MAX_WORDS = 3**6

# criterion 6 of the acceptance suite: the computed value stands and the
# disagreement with the previously reported t=4 "all s" count (2) shows in
# both all-s columns, plus the t=7 class count
BOUNDS_NOTES = [
    "note: t=4 types_all_s: computed 3, previously reported 2",
    "note: t=4 classes_all_s: computed 3, previously reported 2",
    "note: t=7 classes_reps: computed 12, previously reported 11",
]


def rk_census_cases(goldens, seed: int) -> list[Case]:
    rk = {ts: (r, k) for ts, r, k in goldens.RK_TABLE_P3_T7}
    cases = []
    for t in (5, 6):
        argv = ("classify", "--p", "3", "--t", str(t), "--invariants", "--format", "csv", "--threads", "1")
        expected = {ts: v for ts, v in rk.items() if _gray_t(ts) == t}
        cases.append(Case(argv, check_census_rk(t, expected), (3, t)))
    top = (2, 0, 0, 0)  # largest rank of t <= 7, ranked twice by `invariants`
    cases.append(Case(("invariants", "--p", "3", "--type", _type_arg(top)), check_invariants(*rk[top]), (3, 7)))
    return cases


def gh_verify_cases(goldens, seed: int) -> list[Case]:
    """Every code of at most 3^6 words for p = 2, 3, 5, except that of the
    largest size per p only one code (picked by the seed) is checked; then
    one seeded sampled check on a t = 6 code."""
    from ghcodes.classification import enumerate_types

    rng = random.Random(seed)
    cases = []
    for p in (2, 3, 5):
        t_max = 1
        while p ** (t_max + 2) <= GH_EXHAUSTIVE_MAX_WORDS:
            t_max += 1
        for t in range(1, t_max + 1):
            types = [ts for s in range(1, t + 2) for ts in enumerate_types(t, s)]
            if t == t_max:
                types = [rng.choice(types)]
            m = p ** (t + 1)
            for ts in types:
                argv = ("verify", "--p", str(p), "--type", _type_arg(ts), "--mode", "exhaustive", "--min-distance")
                check = check_verify("exhaustive", m * (m - 1) // 2, p ** (t - 1) * (p - 1))
                cases.append(Case(argv, check, (p, t)))
    argv = ("verify", "--p", "3", "--type", "3,1", "--mode", "sampled", "--pairs", str(GH_SAMPLED_PAIRS), "--seed", str(seed))
    cases.append(Case(argv, check_verify("sampled", GH_SAMPLED_PAIRS, None), (3, 6)))
    return cases


def _equiv_case(p: int, rep, member, position: int, sets: str) -> Case:
    t = _gray_t(rep)
    argv = ("equiv-check", "--p", str(p), "--type-a", _type_arg(rep), "--type-b", _type_arg(member), "--sets", sets)
    mode = "set-equality" if sets == "always" else "algebra-only"
    code = (p, t) if sets == "always" else None
    return Case(argv, check_equiv(rep, (1, position), mode, p**t), code)


def chains_cases(goldens, seed: int) -> list[Case]:
    from ghcodes.classification import bound_types_reps
    from ghcodes.construction import validate_type
    from ghcodes.equivalence import chain_members

    cases = []
    # set equality along chains: at p=3 only to the last member (a t=8 pair
    # holds two 129 MB images, beyond L3), every member of the others
    always = [(3, (3, 3), "last"), (3, (2, 4), "last"), (5, (2, 1), "all"), (2, (2, 6), "all")]
    for p, rep, which in always:
        members = chain_members(validate_type(p, rep)).members
        positions = [len(members)] if which == "last" else range(2, len(members) + 1)
        for pos in positions:
            cases.append(_equiv_case(p, rep, members[pos - 1].ts, pos, "always"))
    # long witnesses composed and rendered as JSON, no code materialized
    for p, rep in [(3, (2, 7)), (2, (3, 12)), (5, (2, 4))]:
        members = chain_members(validate_type(p, rep)).members
        cases.append(_equiv_case(p, rep, members[-1].ts, len(members), "never"))
    # pure type algebra
    for p in (2, 3, 5):
        for t in range(3, 17):
            argv = ("classify", "--p", str(p), "--t", str(t), "--format", "json", "--threads", "1")
            cases.append(Case(argv, check_class_count(bound_types_reps(t, p))))
    cases.append(
        Case(
            ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "30"),
            check_bounds(28, BOUNDS_NOTES),
        )
    )
    isolated = {3: [(2, 0)], **goldens.ISOLATED_P3}
    lines = [f"t={t}  " + "  ".join(f"({_type_arg(ts)})" for ts in hits) for t, hits in sorted(isolated.items())]
    cases.append(Case(("tables", "--kind", "isolated", "--p", "3", "--t-min", "3", "--t-max", "10"), check_lines(lines)))
    return cases


def warmup_case(workload: str, goldens) -> Case:
    """The tiny case of each set-up: fills the lru_cache phi/Y tables and
    passes through every module the workload uses."""
    if workload == "rk_census":
        rk = {ts: (r, k) for ts, r, k in goldens.RK_TABLE_P3_T7 if _gray_t(ts) == 4}
        argv = ("classify", "--p", "3", "--t", "4", "--invariants", "--format", "csv", "--threads", "1")
        return Case(argv, check_census_rk(4, rk), (3, 4))
    if workload == "gh_verify":
        argv = ("verify", "--p", "3", "--type", "1,1", "--mode", "exhaustive", "--min-distance")
        return Case(argv, check_verify("exhaustive", 27 * 26 // 2, 6), (3, 2))
    return _equiv_case(3, (2, 1), (1, 1, 0), 2, "always")


WORKLOADS = {
    "rk_census": rk_census_cases,
    "gh_verify": gh_verify_cases,
    "chains": chains_cases,
}
