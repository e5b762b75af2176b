"""Command-line surface.

Subcommands: construct, gray, invariants, chain, equiv-check, classify,
isolated, tables, verify.  Output is deterministic for fixed inputs and
seed: fixed orderings everywhere, no timestamps, single-threaded output
assembly (workers only run inside the library).

Exit codes: 0 success, 1 verification FAIL, 2 bad input, 3 capacity
(over the memory budget).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .classification import bounds_report, census, isolated_types
from .construction import (
    DEFAULT_BUDGET_BYTES,
    GH_SAMPLE_PAIRS,
    GH_SAMPLE_SEED,
    AdditiveCode,
    TypeSignature,
    is_gh_code,
    materialize_additive,
    materialize_gray,
    min_distance,
    validate_type,
)
from .equivalence import chain_members, chain_of, verify_equivalence
from .errors import CapacityError, InputError
from .gray import gray
from .invariants import invariant_pair
from .ring import RingParams

FORMATS = ("table", "csv", "json")


def _parse_type(text: str) -> tuple[int, ...]:
    """Parse a type string: comma-separated nonnegative integers, e.g. "2,1"."""
    parts = text.split(",")
    try:
        ts = tuple(int(v.strip()) for v in parts)
    except ValueError:
        raise InputError(f"malformed type string {text!r}") from None
    if any(v < 0 for v in ts):
        raise InputError(f"type entries must be nonnegative, got {text!r}")
    return ts


def _default_threads() -> int:
    env = os.environ.get("GHCODE_THREADS", "")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise InputError(f"GHCODE_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise InputError(f"GHCODE_THREADS must be >= 1, got {n}")
        return n
    return 1


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs besides the command itself."""

    command: str
    fmt: str
    output: "str | None"
    budget_bytes: int
    threads: int
    seed: int

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        budget = getattr(args, "budget_bytes", DEFAULT_BUDGET_BYTES)
        if budget <= 0:
            raise InputError(f"--budget-bytes must be positive, got {budget}")
        threads = getattr(args, "threads", None)
        if threads is None:
            threads = _default_threads()
        elif threads < 1:
            raise InputError(f"--threads must be >= 1, got {threads}")
        return cls(
            command=args.command,
            fmt=getattr(args, "format", "table"),
            output=getattr(args, "output", None),
            budget_bytes=budget,
            threads=threads,
            seed=getattr(args, "seed", GH_SAMPLE_SEED),
        )


def _emit(text: str, cfg: RunConfig) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _jline(obj) -> str:
    # compact one-line JSON, stable key order as inserted
    return json.dumps(obj, separators=(",", ":"))


def _sig(args: argparse.Namespace, attr: str = "type") -> TypeSignature:
    return validate_type(args.p, _parse_type(getattr(args, attr)))


def _descriptor(sig: TypeSignature) -> dict:
    return {"p": sig.p, "s": sig.s, "type": list(sig.ts), "t": sig.t, "n": sig.n}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace, cfg: RunConfig) -> int:
    sig = _sig(args)
    code = AdditiveCode.build(sig)
    lines = [_jline(_descriptor(sig))]
    if args.codewords is None:
        for row in code.generator:
            lines.append(" ".join(str(int(v)) for v in row))
    elif args.codewords == "additive":
        words = materialize_additive(code, cfg.budget_bytes)
        for row in words:
            lines.append(" ".join(str(int(v)) for v in row))
    else:  # gray
        gc = materialize_gray(code, cfg.budget_bytes)
        for row in gc.words:
            lines.append(" ".join(str(int(v)) for v in row))
    _emit("\n".join(lines), cfg)
    return 0


def cmd_gray(args: argparse.Namespace, cfg: RunConfig) -> int:
    params = RingParams(args.p, args.s)
    if not 0 <= args.value < params.modulus:
        raise InputError(f"value {args.value} outside [0, {params.modulus})")
    w = gray(args.value, params)
    _emit(" ".join(str(int(v)) for v in w.entries), cfg)
    return 0


def cmd_invariants(args: argparse.Namespace, cfg: RunConfig) -> int:
    sig = _sig(args)
    gc = materialize_gray(AdditiveCode.build(sig), cfg.budget_bytes)
    r, k = invariant_pair(gc)
    linear = r == sig.t + 1  # p^rank = |C| = p^(t+1)
    if cfg.fmt == "json":
        _emit(_jline({"p": sig.p, "type": list(sig.ts), "r": r, "k": k, "linear": linear}), cfg)
    else:
        _emit(f"r={r} k={k} linear={str(linear).lower()}", cfg)
    return 0


def cmd_chain(args: argparse.Namespace, cfg: RunConfig) -> int:
    sig = _sig(args)
    cp = chain_of(sig)
    chain = chain_members(cp.representative)
    if cfg.fmt == "json":
        _emit(
            _jline(
                {
                    "p": sig.p,
                    "type": list(sig.ts),
                    "representative": list(cp.representative.ts),
                    "position": cp.position,
                    "chain_len": len(chain),
                    "members": [list(m.ts) for m in chain],
                }
            ),
            cfg,
        )
    else:
        head = (
            f"representative {cp.representative.label()} "
            f"position {cp.position} members {len(chain)}"
        )
        body = [f"  {i}: {m.label()} (s={m.s})" for i, m in enumerate(chain, start=1)]
        _emit("\n".join([head, *body]), cfg)
    return 0


def cmd_equiv_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    sig_a = _sig(args, "type_a")
    sig_b = _sig(args, "type_b")
    check_sets = {"auto": None, "always": True, "never": False}[args.sets]
    report = verify_equivalence(sig_a, sig_b, check_sets=check_sets, budget_bytes=cfg.budget_bytes)
    doc = {
        "verdict": report.verdict,
        "representative": list(report.representative) if report.representative else None,
        "positions": list(report.positions),
        "witness": list(report.witness.one_based()) if report.witness is not None else None,
        "mode": report.mode,
    }
    if report.detail:
        doc["detail"] = report.detail
    _emit(_jline(doc), cfg)
    return 0 if report.passed else 1


_CENSUS_HEADER = ["p", "t", "s", "type", "representative", "position", "chain_len", "linear", "r", "k"]


def _rk_cell(value: "int | None", skipped: bool) -> str:
    if skipped:
        return "skipped"
    return "" if value is None else str(value)


def cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> int:
    c = census(
        args.t,
        args.p,
        s=args.s,
        with_invariants=args.invariants,
        budget_bytes=cfg.budget_bytes,
        threads=cfg.threads,
    )
    if cfg.fmt == "json":
        doc = {
            "p": c.p,
            "t": c.t,
            "class_count": c.class_count,
            "skipped_representatives": [list(rep) for rep in c.skipped_reps],
            "rows": [
                {
                    "s": row.s,
                    "type": list(row.ts),
                    "representative": list(row.representative),
                    "position": row.position,
                    "chain_len": row.chain_len,
                    "linear": row.linear,
                    "r": row.r,
                    "k": row.k,
                    "skipped": row.skipped,
                }
                for row in c.rows
            ],
        }
        _emit(json.dumps(doc, indent=2), cfg)
        return 0
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CENSUS_HEADER)
        for row in c.rows:
            writer.writerow(
                [
                    row.p,
                    row.t,
                    row.s,
                    ",".join(map(str, row.ts)),
                    ",".join(map(str, row.representative)),
                    row.position,
                    row.chain_len,
                    str(row.linear).lower(),
                    _rk_cell(row.r, row.skipped),
                    _rk_cell(row.k, row.skipped),
                ]
            )
        _emit(buf.getvalue(), cfg)
        return 0
    # table
    lines = [f"p={c.p} t={c.t} length={c.p}^{c.t} classes={c.class_count}"]
    for row in c.rows:
        rk = ""
        if args.invariants:
            rk = "  skipped" if row.skipped else f"  (r,k)=({row.r},{row.k})"
        flag = "linear" if row.linear else "      "
        lines.append(
            f"  s={row.s}  ({','.join(map(str, row.ts))})  {flag}"
            f"  rep=({','.join(map(str, row.representative))}) pos={row.position}/{row.chain_len}{rk}"
        )
    if c.skipped_reps:
        lines.append("skipped representatives: " + "; ".join(",".join(map(str, r)) for r in c.skipped_reps))
    _emit("\n".join(lines), cfg)
    return 0


def cmd_isolated(args: argparse.Namespace, cfg: RunConfig) -> int:
    table = isolated_types(args.t_max, args.p)
    if cfg.fmt == "json":
        doc = {
            "p": args.p,
            "t_max": args.t_max,
            "isolated": {str(t): [list(ts) for ts in hits] for t, hits in sorted(table.items())},
        }
        _emit(_jline(doc), cfg)
        return 0
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "type"])
        for t, hits in sorted(table.items()):
            for ts in hits:
                writer.writerow([t, ",".join(map(str, ts))])
        _emit(buf.getvalue(), cfg)
        return 0
    lines = []
    for t, hits in sorted(table.items()):
        pretty = "  ".join("(" + ",".join(map(str, ts)) + ")" for ts in hits)
        lines.append(f"t={t}  {pretty}")
    _emit("\n".join(lines) if lines else "none", cfg)
    return 0


def _tables_types(args: argparse.Namespace, cfg: RunConfig) -> str:
    lines = []
    rows_csv = []
    for t in range(args.t_min, args.t_max + 1):
        c = census(t, args.p, with_invariants=True, budget_bytes=cfg.budget_bytes, threads=cfg.threads)
        for row in c.rows:
            if row.linear:
                continue
            rows_csv.append(row)
            rk = "skipped" if row.skipped else f"({row.r},{row.k})"
            lines.append(f"t={row.t} s={row.s}  ({','.join(map(str, row.ts))}) -> {rk}")
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "t", "s", "type", "r", "k", "linear"])
        for row in rows_csv:
            writer.writerow(
                [
                    row.p,
                    row.t,
                    row.s,
                    ",".join(map(str, row.ts)),
                    _rk_cell(row.r, row.skipped),
                    _rk_cell(row.k, row.skipped),
                    str(row.linear).lower(),
                ]
            )
        return buf.getvalue()
    if cfg.fmt == "json":
        doc = [
            {
                "p": row.p,
                "t": row.t,
                "s": row.s,
                "type": list(row.ts),
                "r": row.r,
                "k": row.k,
                "skipped": row.skipped,
            }
            for row in rows_csv
        ]
        return json.dumps(doc, indent=2)
    return "\n".join(lines)


def _tables_bounds(args: argparse.Namespace, cfg: RunConfig) -> str:
    report = bounds_report(
        args.p,
        args.t_min,
        args.t_max,
        with_lower=args.with_lower,
        budget_bytes=cfg.budget_bytes,
        threads=cfg.threads,
    )
    if cfg.fmt == "json":
        doc = {
            "p": report.p,
            "assumption": report.assumption,
            "discrepancies": list(report.discrepancies),
            "rows": [
                {
                    "t": r.t,
                    "types_all_s": r.types_all_s,
                    "classes_all_s": r.classes_all_s,
                    "types_reps": r.types_reps,
                    "classes_reps": r.classes_reps,
                    "lower_rk": r.lower_rk,
                    "lower_rk_partial": r.lower_rk_partial,
                }
                for r in report.rows
            ],
        }
        return json.dumps(doc, indent=2)
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t", "types_all_s", "classes_all_s", "types_reps", "classes_reps", "lower_rk"])
        for r in report.rows:
            lower = "" if r.lower_rk is None else (f"{r.lower_rk}+" if r.lower_rk_partial else str(r.lower_rk))
            writer.writerow([r.t, r.types_all_s, r.classes_all_s, r.types_reps, r.classes_reps, lower])
        return buf.getvalue()
    # the * columns lean on the level-wise class-count assumption below
    lines = [f"{'t':>3} {'types(all s)':>13} {'classes(all s)*':>16} {'types(reps)':>12} {'classes(reps)*':>15} {'lower(r,k)':>11}"]
    for r in report.rows:
        lower = "-" if r.lower_rk is None else (f"{r.lower_rk}+" if r.lower_rk_partial else str(r.lower_rk))
        lines.append(
            f"{r.t:>3} {r.types_all_s:>13} {r.classes_all_s:>16} {r.types_reps:>12} {r.classes_reps:>15} {lower:>11}"
        )
    lines.append(f"* {report.assumption}")
    for d in report.discrepancies:
        lines.append(f"note: {d}")
    return "\n".join(lines)


def cmd_tables(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.kind == "bounds":
        _emit(_tables_bounds(args, cfg), cfg)
    elif args.kind == "isolated":
        table = isolated_types(args.t_max, args.p)
        lines = []
        for t in range(args.t_min, args.t_max + 1):
            hits = table.get(t, [])
            if hits:
                pretty = "  ".join("(" + ",".join(map(str, ts)) + ")" for ts in hits)
                lines.append(f"t={t}  {pretty}")
        _emit("\n".join(lines) if lines else "none", cfg)
    else:
        _emit(_tables_types(args, cfg), cfg)
    return 0


def cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    sig = _sig(args)
    gc = materialize_gray(AdditiveCode.build(sig), cfg.budget_bytes)
    verdict = is_gh_code(gc, mode=args.mode, pairs=args.pairs, seed=cfg.seed)
    ok = verdict.passed
    md = None
    expected = None
    if args.min_distance:
        md = min_distance(gc)
        expected = sig.p ** (sig.t - 1) * (sig.p - 1)
        ok = ok and md == expected
    if cfg.fmt == "json":
        doc = {
            "p": sig.p,
            "type": list(sig.ts),
            "gh": {
                "passed": verdict.passed,
                "mode": verdict.mode,
                "pairs_checked": verdict.pairs_checked,
                "reason": verdict.reason or None,
            },
        }
        if md is not None:
            doc["min_distance"] = {"value": md, "expected": expected}
        _emit(_jline(doc), cfg)
    else:
        lines = [
            f"gh {'PASS' if verdict.passed else 'FAIL'} mode={verdict.mode} pairs={verdict.pairs_checked}"
            + (f" reason={verdict.reason}" if verdict.reason else "")
        ]
        if md is not None:
            lines.append(f"min_distance {md} expected {expected}")
        _emit("\n".join(lines), cfg)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, fmt_default: str = "table") -> None:
    sub.add_argument("--format", choices=FORMATS, default=fmt_default)
    sub.add_argument("--output", "-o", metavar="PATH", default=None, help="write to a file instead of stdout")
    sub.add_argument("--budget-bytes", type=int, default=DEFAULT_BUDGET_BYTES, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghcodes",
        description="Z_{p^s}-additive generalized Hadamard codes: construction, Gray images, invariants, equivalences, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="descriptor and generator matrix (or codeword dump) of one type")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--type", required=True, metavar="T1,...,TS")
    sp.add_argument("--codewords", choices=("additive", "gray"), default=None, help="dump codewords instead of the generator")
    _add_common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("gray", help="Gray image of one residue")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--value", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_gray)

    sp = sub.add_parser("invariants", help="rank, kernel dimension and linearity of one type")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--type", required=True, metavar="T1,...,TS")
    _add_common(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("chain", help="locate a type in its chain of equivalences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--type", required=True, metavar="T1,...,TS")
    _add_common(sp)
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("equiv-check", help="decide equivalence of two types (JSON verdict, witness permutation)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--type-a", required=True, metavar="T1,...,TS")
    sp.add_argument("--type-b", required=True, metavar="T1,...,TS")
    sp.add_argument("--sets", choices=("auto", "always", "never"), default="auto", help="verify set equality of the mapped codes")
    _add_common(sp, fmt_default="json")
    sp.set_defaults(func=cmd_equiv_check)

    sp = sub.add_parser("classify", help="census of all types of one length")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, default=None, help="restrict to one ring level")
    sp.add_argument("--invariants", action="store_true", help="attach (r,k) per class within budget")
    sp.add_argument("--threads", type=int, default=None, metavar="N")
    _add_common(sp, fmt_default="csv")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("isolated", help="single-member chains (equivalent to no other type)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t-max", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_isolated)

    sp = sub.add_parser("tables", help="rank/kernel, bounds or isolated tables over a range of t")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--t-min", type=int, required=True)
    sp.add_argument("--t-max", type=int, required=True)
    sp.add_argument("--kind", choices=("types", "bounds", "isolated"), default="types")
    sp.add_argument("--with-lower", action="store_true", help="bounds: include the (r,k) lower bound (materializes codes)")
    sp.add_argument("--threads", type=int, default=None, metavar="N")
    _add_common(sp)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("verify", help="GH difference property and minimum distance of one type")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--type", required=True, metavar="T1,...,TS")
    sp.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    sp.add_argument("--pairs", type=int, default=GH_SAMPLE_PAIRS, metavar="N")
    sp.add_argument("--seed", type=int, default=GH_SAMPLE_SEED, metavar="N")
    sp.add_argument("--min-distance", action="store_true", help="also compute the minimum distance (full pair scan)")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        return args.func(args, cfg)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
