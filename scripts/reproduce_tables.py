#!/usr/bin/env python3
"""Recompute the classification tables from scratch, with per-t timing.

Prints `ghcodes classify --format table` (with (r,k) per class) for each t
in the range, each followed by its wall time, so a long run shows
progress; then `ghcodes isolated` up to t_max.  The (r,k) of each class
come from the structural rank and kernel, which hold no Gray image.  For
p = 3 on a 2-core machine, under the default budget, every t <= 8 takes
under half a second, t = 9 about 1 s, t = 10 about 2 s and t = 11 about
27 s (170 MB peak RSS), with no class skipped.

    python3 scripts/reproduce_tables.py --p 3 --t-min 4 --t-max 7
    python3 scripts/reproduce_tables.py --p 3 --t-min 8 --t-max 10
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ghcodes import DEFAULT_BUDGET_BYTES, cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--t-min", type=int, default=4)
    ap.add_argument("--t-max", type=int, default=7)
    ap.add_argument("--budget-bytes", type=int, default=DEFAULT_BUDGET_BYTES)
    ap.add_argument("--no-invariants", action="store_true", help="chain algebra only, no rank/kernel")
    args = ap.parse_args()

    common = ["--p", str(args.p), "--budget-bytes", str(args.budget_bytes)]
    invariants = [] if args.no_invariants else ["--invariants"]
    for t in range(args.t_min, args.t_max + 1):
        t0 = time.perf_counter()
        status = cli.main(["classify", "--t", str(t), *common, *invariants, "--format", "table"])
        print(f"# p={args.p} t={t}  ({time.perf_counter() - t0:.1f}s)", flush=True)
        if status:
            return status
    print(f"# isolated types, p={args.p}, t <= {args.t_max}")
    return cli.main(["isolated", "--p", str(args.p), "--t-max", str(args.t_max)])


if __name__ == "__main__":
    raise SystemExit(main())
