#!/usr/bin/env python3
"""Benchmark of the ``ghcodes`` command line.

    python3 perfbench/run.py --workload rk_census --seed 1 --seconds 30 --trace 0

Closed loop, one client: a single process runs one case at a time, each
case an in-process call of ``ghcodes.cli.main(argv)`` with its output
captured and checked.  The library is imported from ``src/`` of the
checkout this file lives in, pinned to ``--threads 1`` with
``GHCODE_THREADS`` unset.

``--trace 0`` measures the end-to-end metrics in passes over the
workload's case list until ``--seconds`` would run out.  ``wall_s`` is
the sum over cases of each case's median time over those passes,
``peak_rss_mb`` the peak RSS of this process, and ``setup_s`` the median
over fresh interpreters, one started before each pass, each importing
ghcodes and running one tiny warm-up case.

``--trace 1`` gives the per-layer metrics: every case runs in its own
child process, once to warm up, once untraced and then once with spans
around the public functions of each module (see ``spans.py``).  The
child's peak RSS, read with ``os.wait4``, is set beside the library's ``materialization_bytes``
estimate.  ``trace.overhead_s`` is the traced minus the untraced time of
the case list.

The last line of standard output is one JSON object; the full record
(environment, per-case times, failures and, when traced, the spans) is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "classification.census_s": "s",
    "classification.types_located": "count",
    "classification.bounds_s": "s",
    "equivalence.verify_s": "s",
    "equivalence.witness_s": "s",
    "equivalence.witness_coords": "count",
    "gray.expand_s": "s",
    "gray.expand_bytes": "bytes",
    "gray.permute_s": "s",
    "gray.permute_bytes": "bytes",
    "construction.build_s": "s",
    "construction.additive_s": "s",
    "construction.additive_bytes": "bytes",
    "construction.index_s": "s",
    "construction.lookup_s": "s",
    "construction.lookup_rows": "count",
    "construction.lookup_hit_ratio": "ratio",
    "construction.gh_s": "s",
    "construction.gh_pairs": "count",
    "construction.min_distance_s": "s",
    "construction.min_distance_pairs": "count",
    "construction.peak_over_estimate": "ratio",
    "invariants.rank_s": "s",
    "invariants.rank_calls": "count",
    "invariants.absorb_rows": "count",
    "invariants.kernel_s": "s",
    "invariants.kernel_candidates": "count",
    "trace.overhead_s": "s",
}

# a fresh interpreter: import the library, run one case, print its output
_SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import ghcodes.cli; sys.exit(ghcodes.cli.main(sys.argv[2:]))"
_CHILD_CODE = "import sys; sys.path[:0] = sys.argv[1:3]; import spans; spans.child_main(*sys.argv[3:5])"


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or goldens)."""


def import_library():
    """Import ghcodes from this checkout's src/, never from anywhere else."""
    if not (SRC / "ghcodes" / "__init__.py").is_file():
        raise BenchError(f"no ghcodes sources under {SRC}")
    if not (ROOT / "tests" / "goldens.py").is_file():
        raise BenchError(f"no frozen goldens at {ROOT / 'tests' / 'goldens.py'}")
    sys.path.insert(0, str(SRC))
    import ghcodes

    if Path(ghcodes.__file__).resolve().parent != SRC / "ghcodes":
        raise BenchError(f"imported ghcodes from {ghcodes.__file__}, not from {SRC}")
    return ghcodes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GHCODE_THREADS", None)
    return env


def l3_bytes() -> "int | None":
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10).stdout
        return int(out.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(workload: str, cases) -> dict:
    import numpy

    from workloads import NOTES

    largest = max(cases, key=lambda c: c.gray_bytes)
    l3 = l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_bytes": l3,
        "largest_gray_bytes": largest.gray_bytes,
        "largest_gray_case": largest.label,
        "largest_gray_fits_l3": None if l3 is None else largest.gray_bytes <= l3,
        "workload": workload,
        **NOTES[workload],
    }


class Tally:
    """Every case run and every failure, with the case it came from."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, case, phase: str, rc, out: str, err: str) -> None:
        from workloads import judge

        self.attempted += 1
        reason = judge(case, rc, out, err)
        if reason is not None:
            self._failed(case, phase, reason)

    def fail(self, case, phase: str, reason: str) -> None:
        self.attempted += 1
        self._failed(case, phase, reason)

    def _failed(self, case, phase: str, reason: str) -> None:
        self.failures.append({"case": case.label, "phase": phase, "reason": reason})
        print(f"FAILED [{phase}] {case.label}: {reason}", file=sys.stderr)


def setup_sample(warm, tally: Tally, phase: str) -> float:
    """Wall time of one fresh interpreter that imports ghcodes and runs the warm-up case."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), *warm.argv],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    tally.record(warm, phase, proc.returncode, proc.stdout, proc.stderr)
    return seconds


def run_passes(cases, warm, seconds: float, rng: random.Random, tally: Tally) -> "tuple[list[list[float]], list[float]]":
    """Passes over the case list, each in a seeded order, until another
    pass as long as the longest so far would overrun `seconds`.

    Each pass starts with one set-up sample, topped up to SETUP_RUNS at
    the end, so that set-up is sampled across the run like the cases: the
    speed of a shared machine drifts over tens of seconds.
    """
    from workloads import run_cli

    times: list[list[float]] = [[] for _ in cases]
    setup: list[float] = []
    start = time.perf_counter()
    longest = 0.0
    passes = 0
    while True:
        began = time.perf_counter()
        setup.append(setup_sample(warm, tally, f"setup{passes}"))
        order = list(range(len(cases)))
        rng.shuffle(order)
        for i in order:
            dt, rc, out, err = run_cli(cases[i].argv)
            times[i].append(dt)
            tally.record(cases[i], f"pass{passes}", rc, out, err)
        passes += 1
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now + longest > start + seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(setup_sample(warm, tally, f"setup{len(setup)}"))
    return times, setup


def run_traced_child(case, case_id: str) -> "tuple[dict | None, int, str]":
    """One case in its own interpreter: (child document, peak RSS bytes, error)."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_CODE, str(HERE), str(SRC), json.dumps(case.argv), case_id],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    # Popen's own timeouts reap the child and lose its rusage, so a timer kills it
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        raw = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss * 1024  # kilobytes on Linux
    if proc.returncode != 0:
        return None, peak, f"traced child exited with {proc.returncode}"
    return json.loads(raw), peak, ""


def traced(workload: str, cases, tally: Tally) -> "tuple[dict, dict]":
    """Per-layer metrics from one child per case, and the full record."""
    import spans as sp

    all_spans: list[list] = []
    counts: dict[str, int] = {}
    per_case = []
    seconds = {"warmup": 0.0, "untraced": 0.0, "traced": 0.0}
    output_bytes = 0
    for i, case in enumerate(cases):
        case_id = f"{workload}/{i}"
        doc, peak, error = run_traced_child(case, case_id)
        if doc is None:
            tally.fail(case, "traced", error)
            continue
        for phase, (dt, rc, out, err) in zip(seconds, doc["runs"]):
            seconds[phase] += dt
            tally.record(case, phase, rc, out, err)
        output_bytes += len(doc["runs"][2][2].encode())
        offset = len(all_spans)
        for rec in doc["spans"]:
            if rec[3] is not None:
                rec[3] += offset
        all_spans.extend(doc["spans"])
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        estimate = sp.case_estimate(case.argv, doc["spans"])
        per_case.append(
            {
                "id": case_id,
                "case": case.label,
                "untraced_s": doc["runs"][1][0],
                "traced_s": doc["runs"][2][0],
                "peak_rss_bytes": peak,
                "estimate_bytes": estimate,
            }
        )

    values = sp.layer_metrics(all_spans, counts)
    values["cli.output_bytes"] = output_bytes
    biggest = max(per_case, key=lambda c: c["estimate_bytes"], default=None)
    values["construction.peak_over_estimate"] = (
        biggest["peak_rss_bytes"] / biggest["estimate_bytes"] if biggest and biggest["estimate_bytes"] else 0.0
    )
    values["trace.overhead_s"] = seconds["traced"] - seconds["untraced"]
    record = {
        "untraced_s": seconds["untraced"],
        "traced_s": seconds["traced"],
        "cases": per_case,
        "self_s_by_span": dict(sorted(sp.self_by_name(all_spans).items())),
        "spans": all_spans,
    }
    return values, record


def measure(workload: str, cases, warm, seconds: float, trace: int, seed: int) -> "tuple[dict, dict, Tally]":
    """Metrics of one run (end-to-end, or per-layer when traced), the
    record written beside them, and the tally of case runs."""
    tally = Tally()
    if trace:
        values, record = traced(workload, cases, tally)
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}, record, tally

    from workloads import run_cli

    tally.record(warm, "warmup", *run_cli(warm.argv)[1:])
    times, setup = run_passes(cases, warm, seconds, random.Random(seed), tally)
    values = {
        "wall_s": sum(statistics.median(ts) for ts in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    record = {
        "passes": len(times[0]),
        "setup_samples_s": setup,
        "cases": [{"case": c.label, "seconds": ts} for c, ts in zip(cases, times)],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}, record, tally


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("rk_census", "gh_verify", "chains"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.environ.pop("GHCODE_THREADS", None)
    try:
        import_library()
        from workloads import WORKLOADS, load_goldens, warmup_case

        goldens = load_goldens(ROOT)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cases = WORKLOADS[args.workload](goldens, args.seed)
    warm = warmup_case(args.workload, goldens)
    metrics, record, tally = measure(args.workload, cases, warm, args.seconds, args.trace, args.seed)

    failed = len(tally.failures)
    env = environment(args.workload, cases)
    if not args.trace:
        print(
            f"{args.workload} seed={args.seed}: "
            + " ".join(f"{name}={m['value']:.4g} {m['unit']}" for name, m in metrics.items())
            + f" (wall_s: sum of per-case medians over {record['passes']} passes of {len(cases)} cases;"
            f" setup_s: median of {len(record['setup_samples_s'])})"
        )
    print(f"{args.workload}: failed_frac={failed / tally.attempted:g} ({failed} of {tally.attempted} case runs)")
    print(json.dumps(env, separators=(",", ":")))
    OUT.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        **record,
        "failed_frac": failed / tally.attempted,
        "failures": tally.failures,
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(doc, indent=1) + "\n")
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
