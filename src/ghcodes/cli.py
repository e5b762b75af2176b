"""Command-line surface.

Subcommands: construct, gray, invariants, chain, equiv-check, classify,
isolated, tables, verify.  Each command returns a `Result` with what it
computed: its text lines, its JSON document and, for the tabular commands,
its CSV rows.  `main` renders the one format asked for and writes it to
stdout or ``--output``.  A subcommand offers only the formats it renders:

    construct, gray             text only (no --format)
    equiv-check                 json
    invariants, chain, verify   table (default) or json
    classify                    csv (default), table or json
    isolated, tables            table (default), csv or json

``--budget-bytes`` exists only on the commands that materialize codes
(construct, invariants, equiv-check, classify, tables, verify).  Of the
options of ``tables``, --with-lower belongs to --kind bounds, and
--budget-bytes to the kinds types and bounds; every kind checks
1 <= --t-min <= --t-max.  ``classify --threads`` takes the one value 1,
kept so that command lines which pin it still parse.  An option or format
a subcommand (or a kind of ``tables``) does not offer is a usage error
(exit code 2).

Output is deterministic for fixed inputs and seed: fixed orderings
everywhere, no timestamps, one thread.

Exit codes: 0 success, 1 verification FAIL, 2 bad input, 3 capacity
(over the memory budget).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass, field

from .classification import bounds_report, census, isolated_types
from .construction import (
    DEFAULT_BUDGET_BYTES,
    GH_SAMPLE_PAIRS,
    GH_SAMPLE_SEED,
    AdditiveCode,
    TypeSignature,
    _check_budget,
    _check_gh_options,
    additive_bytes,
    build_bytes,
    build_gray_code,
    is_gh_code,
    materialization_bytes,
    materialize_additive,
    materialize_gray,
    min_distance,
    validate_type,
)
from .equivalence import chain_members, chain_of, verify_equivalence
from .errors import CapacityError, InputError
from .gray import gray
from .invariants import structural_pair
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


# the options of `tables` that each kind honours; the others are usage errors
_TABLES_KIND_OPTIONS = {
    "types": ("budget_bytes",),
    "bounds": ("with_lower", "budget_bytes"),
    "isolated": (),
}


def _check_kind(args: argparse.Namespace) -> None:
    """Reject the `tables` options that the chosen --kind ignores, and drop them from ``args``."""
    for dest in ("with_lower", "budget_bytes"):
        if dest in _TABLES_KIND_OPTIONS[args.kind]:
            continue
        given = getattr(args, dest)
        if given is not None and given is not False:
            args.usage_error(f"argument --{dest.replace('_', '-')}: not allowed with --kind {args.kind}")
        delattr(args, dest)


def _check_limits(args: argparse.Namespace) -> None:
    """Validate --budget-bytes where the command has it; a missing one is the default budget."""
    if hasattr(args, "budget_bytes"):
        if args.budget_bytes is None:
            args.budget_bytes = DEFAULT_BUDGET_BYTES
        elif args.budget_bytes <= 0:
            raise InputError(f"--budget-bytes must be positive, got {args.budget_bytes}")


# ---------------------------------------------------------------------------
# results and their one renderer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Result:
    """What one command computed, in every form its formats need."""

    lines: "list[str]" = field(default_factory=list)  # text, the "table" format
    doc: object = None  # JSON document
    rows: "list[list] | None" = None  # CSV header row, then the data rows
    indent: "int | None" = None  # JSON style: None is compact on one line
    status: int = 0  # exit code


def _json(doc, indent: "int | None" = None) -> str:
    """``doc`` as ``json.dumps`` writes it, keys in insertion order: compact on one line, or indented.

    Python's C encoder serves only compact documents, so an indented one is
    joined here from the scalar encoders json uses, byte for byte as its
    pure-Python encoder writes it, and faster.
    """
    if not indent:
        return json.dumps(doc, separators=(",", ":"))
    return _indented(doc, "\n", " " * indent)


_encode_str = json.encoder.encode_basestring_ascii


def _indented(value, pad: str, step: str) -> str:
    """``value`` as ``json.dumps(value, indent=len(step))`` writes it at the depth where lines start with ``pad``.

    Ints inside a container are written in place, the commonest leaf, to
    save a call each.  Every int test is ``type(v) is int``, never
    ``isinstance``: a bool is an int, and ``int.__repr__(True)`` is "1".
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + step
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [int.__repr__(v) if type(v) is int else _indented(v, inner, step) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        items = [
            _encode_str(k) + ": " + (int.__repr__(v) if type(v) is int else _indented(v, inner, step))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    # floats, non-str keys and every other type: json's own encoder, moved to this depth (JSON text
    # holds no raw newline, so every newline in it starts a line)
    return json.dumps(value, indent=len(step)).replace("\n", pad)


def _cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return value  # csv writes None as an empty cell


def _render(result: Result, fmt: str) -> str:
    if fmt == "json":
        text = _json(result.doc, result.indent)
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([_cell(v) for v in row] for row in result.rows)
        text = buf.getvalue()
    else:
        text = "\n".join(result.lines)
    return text if text.endswith("\n") else text + "\n"


def _sig(args: argparse.Namespace, attr: str = "type") -> TypeSignature:
    return validate_type(args.p, _parse_type(getattr(args, attr)))


def _words(rows) -> "list[str]":
    return [" ".join(str(int(v)) for v in row) for row in rows]


def _label(ts) -> str:
    return "(" + ",".join(map(str, ts)) + ")"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> Result:
    """descriptor and generator matrix (or codeword dump) of one type"""
    sig = _sig(args)
    kind, modulus = args.codewords, sig.params.modulus
    lines, width, top, held = {
        None: (sig.num_rows, sig.n, modulus - 1, 0),
        "additive": (sig.size, sig.n, modulus - 1, additive_bytes(sig)),
        "gray": (sig.size, sig.gray_length, sig.p - 1, materialization_bytes(sig)),
    }[kind]
    # a line is its symbols, each with a space or newline, plus 64 bytes of str header and list slot; the
    # text is held three times over: as lines, joined, and joined with its last newline (or encoded)
    text = lines * (width * (len(str(top)) + 1) + 64)
    what = "generator" if kind is None else "codeword dump"
    _check_budget(f"{what} of type {sig.ts}", build_bytes(sig) + held + 3 * text, args.budget_bytes)
    code = AdditiveCode.build(sig)
    if kind is None:
        rows = code.generator
    else:
        rows = materialize_additive(code, args.budget_bytes) if kind == "additive" else materialize_gray(code, args.budget_bytes).words
    descriptor = {"p": sig.p, "s": sig.s, "type": list(sig.ts), "t": sig.t, "n": sig.n}
    return Result([_json(descriptor), *_words(rows)])


def cmd_gray(args: argparse.Namespace) -> Result:
    """Gray image of one residue"""
    return Result(_words([gray(args.value, RingParams(args.p, args.s))]))


def cmd_invariants(args: argparse.Namespace) -> Result:
    """rank, kernel dimension and linearity of one type"""
    sig = _sig(args)
    r, k = structural_pair(sig, args.budget_bytes)
    linear = r == sig.t + 1  # p^rank = |C| = p^(t+1)
    return Result(
        lines=[f"r={r} k={k} linear={str(linear).lower()}"],
        doc={"p": sig.p, "type": list(sig.ts), "r": r, "k": k, "linear": linear},
    )


def cmd_chain(args: argparse.Namespace) -> Result:
    """locate a type in its chain of equivalences"""
    sig = _sig(args)
    cp = chain_of(sig)
    chain = chain_members(cp.representative)
    head = f"representative {cp.representative.label()} position {cp.position} members {len(chain)}"
    return Result(
        lines=[head, *(f"  {i}: {m.label()} (s={m.s})" for i, m in enumerate(chain, start=1))],
        doc={
            "p": sig.p,
            "type": list(sig.ts),
            "representative": list(cp.representative.ts),
            "position": cp.position,
            "chain_len": len(chain),
            "members": [list(m.ts) for m in chain],
        },
    )


def _witness_json_bytes(length: int) -> int:
    """Bytes the rendered witness of ``length`` coordinates holds at most.

    Per coordinate 104 bytes of Python objects: the document's list of
    ints, a 32-byte int and an 8-byte slot each, and, while the C encoder
    writes them, the str of each int with its slot (64 bytes; the encoder
    joins them in batches, so this share falls beyond about 60 000
    coordinates).  Then its JSON text, at most three times over: the
    joined text, the text with its last newline and its encoding on the
    way out.  Under tracemalloc the whole command peaked at 104, 88 and
    71 bytes a coordinate at p = 3, 5 and 2 (lengths 3^10, 5^7 and 2^17),
    its witness included.
    """
    return length * (104 + 3 * (len(str(length)) + 1))


def cmd_equiv_check(args: argparse.Namespace) -> Result:
    """decide equivalence of two types (JSON verdict, witness permutation)"""
    sig_a = _sig(args, "type_a")
    sig_b = _sig(args, "type_b")
    check_sets = {"auto": None, "always": True, "never": False}[args.sets]
    report = verify_equivalence(
        sig_a, sig_b, check_sets=check_sets, budget_bytes=args.budget_bytes, render_bytes=_witness_json_bytes(sig_a.gray_length)
    )
    doc = {
        "verdict": report.verdict,
        "representative": list(report.representative) if report.representative else None,
        "positions": list(report.positions),
        "witness": (report.witness.image + 1).tolist() if report.witness is not None else None,  # 1-based
        "mode": report.mode,
    }
    if report.detail:
        doc["detail"] = report.detail
    return Result(doc=doc, status=0 if report.passed else 1)


def _census_rows(rows, json_keys, csv_keys) -> "tuple[list[dict], list[list]]":
    """The fields ``json_keys`` of each census row as a JSON object, and a
    CSV table of the fields ``csv_keys``, where r and k of a skipped row
    read "skipped"."""
    docs, cells = [], [list(csv_keys)]
    for row in rows:
        fields = dict(vars(row), type=row.ts)  # JSON writes tuples as arrays
        docs.append({key: fields[key] for key in json_keys})
        if row.skipped:
            fields["r"] = fields["k"] = "skipped"
        cells.append([fields[key] for key in csv_keys])
    return docs, cells


def cmd_classify(args: argparse.Namespace) -> Result:
    """census of all types of one length"""
    c = census(args.t, args.p, s=args.s, with_invariants=args.invariants, budget_bytes=args.budget_bytes)
    docs, cells = _census_rows(
        c.rows,
        ("s", "type", "representative", "position", "chain_len", "linear", "r", "k", "skipped"),
        ("p", "t", "s", "type", "representative", "position", "chain_len", "linear", "r", "k"),
    )
    lines = [f"p={c.p} t={c.t} length={c.p}^{c.t} classes={c.class_count}"]
    for row in c.rows:
        rk = ""
        if args.invariants:
            rk = "  skipped" if row.skipped else f"  (r,k)=({row.r},{row.k})"
        flag = "linear" if row.linear else "      "
        lines.append(
            f"  s={row.s}  {_label(row.ts)}  {flag}"
            f"  rep={_label(row.representative)} pos={row.position}/{row.chain_len}{rk}"
        )
    if c.skipped_reps:
        lines.append("skipped representatives: " + "; ".join(",".join(map(str, r)) for r in c.skipped_reps))
    doc = {
        "p": c.p,
        "t": c.t,
        "class_count": c.class_count,
        "skipped_representatives": [list(rep) for rep in c.skipped_reps],
        "rows": docs,
    }
    return Result(lines, doc, cells, indent=2)


def _isolated(p: int, t_min: int, t_max: int) -> Result:
    table = {t: hits for t, hits in sorted(isolated_types(t_max, p).items()) if t >= t_min}
    lines = [f"t={t}  " + "  ".join(_label(ts) for ts in hits) for t, hits in table.items()]
    return Result(
        lines=lines or ["none"],
        doc={"p": p, "t_max": t_max, "isolated": {str(t): [list(ts) for ts in hits] for t, hits in table.items()}},
        rows=[["t", "type"], *([t, ts] for t, hits in table.items() for ts in hits)],
    )


def cmd_isolated(args: argparse.Namespace) -> Result:
    """single-member chains (equivalent to no other type)"""
    return _isolated(args.p, 0, args.t_max)


def _tables_types(args: argparse.Namespace) -> Result:
    rows = [
        row
        for t in range(args.t_min, args.t_max + 1)
        for row in census(t, args.p, with_invariants=True, budget_bytes=args.budget_bytes).rows
        if not row.linear
    ]
    lines = []
    for row in rows:
        rk = "skipped" if row.skipped else f"({row.r},{row.k})"
        lines.append(f"t={row.t} s={row.s}  {_label(row.ts)} -> {rk}")
    docs, cells = _census_rows(
        rows, ("p", "t", "s", "type", "r", "k", "skipped"), ("p", "t", "s", "type", "r", "k", "linear")
    )
    return Result(lines or ["none"], docs, cells, indent=2)


def _tables_bounds(args: argparse.Namespace) -> Result:
    report = bounds_report(args.p, args.t_min, args.t_max, with_lower=args.with_lower, budget_bytes=args.budget_bytes)
    # the * columns lean on the level-wise class-count assumption below
    lines = [f"{'t':>3} {'types(all s)':>13} {'classes(all s)*':>16} {'types(reps)':>12} {'classes(reps)*':>15} {'lower(r,k)':>11}"]
    cells = [["t", "types_all_s", "classes_all_s", "types_reps", "classes_reps", "lower_rk"]]
    for r in report.rows:
        lower = None if r.lower_rk is None else (f"{r.lower_rk}+" if r.lower_rk_partial else str(r.lower_rk))
        lines.append(
            f"{r.t:>3} {r.types_all_s:>13} {r.classes_all_s:>16} {r.types_reps:>12} {r.classes_reps:>15} {lower or '-':>11}"
        )
        cells.append([r.t, r.types_all_s, r.classes_all_s, r.types_reps, r.classes_reps, lower])
    lines.append(f"* {report.assumption}")
    lines.extend(f"note: {d}" for d in report.discrepancies)
    doc = {
        "p": report.p,
        "assumption": report.assumption,
        "discrepancies": list(report.discrepancies),
        "rows": [asdict(r) for r in report.rows],
    }
    return Result(lines, doc, cells, indent=2)


def cmd_tables(args: argparse.Namespace) -> Result:
    """rank/kernel, bounds or isolated tables over a range of t"""
    if args.t_min < 1:
        raise InputError(f"--t-min must be >= 1, got {args.t_min}")
    if args.t_min > args.t_max:
        raise InputError(f"empty t range: --t-min {args.t_min} > --t-max {args.t_max}")
    if args.kind == "isolated":
        return _isolated(args.p, args.t_min, args.t_max)
    if args.kind == "bounds":
        return _tables_bounds(args)
    return _tables_types(args)


def cmd_verify(args: argparse.Namespace) -> Result:
    """GH difference property and minimum distance of one type"""
    sig = _sig(args)
    if sig.t < 1:  # a Gray image of length 1 has no expected distance p^(t-1) (p-1)
        raise InputError(f"verify needs t >= 1, type {_label(sig.ts)} has t = {sig.t}")
    _check_gh_options(args.mode, args.pairs, args.seed)  # before the image is built
    gc = build_gray_code(sig, args.budget_bytes)
    verdict = is_gh_code(gc, mode=args.mode, pairs=args.pairs, seed=args.seed)
    ok = verdict.passed
    lines = [
        f"gh {'PASS' if verdict.passed else 'FAIL'} mode={verdict.mode} pairs={verdict.pairs_checked}"
        + (f" reason={verdict.reason}" if verdict.reason else "")
    ]
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
    if args.min_distance:
        md = min_distance(gc) if verdict._distance is None else verdict._distance
        expected = sig.p ** (sig.t - 1) * (sig.p - 1)
        ok = ok and md == expected
        lines.append(f"min_distance {md} expected {expected}")
        doc["min_distance"] = {"value": md, "expected": expected}
    return Result(lines, doc, status=0 if ok else 1)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _command(sub, name: str, func, formats: "tuple[str, ...]" = (), budget: bool = False) -> argparse.ArgumentParser:
    """Subcommand ``name`` running ``func`` (its docstring is the help line):
    --p, --format over the formats it renders (the first is the default),
    --output, and --budget-bytes where it materializes codes."""
    sp = sub.add_parser(name, help=func.__doc__)
    sp.set_defaults(func=func)
    sp.add_argument("--p", type=int, required=True)
    if formats:
        sp.add_argument("--format", choices=formats, default=formats[0])
    else:
        sp.set_defaults(format="table")
    sp.add_argument("--output", "-o", metavar="PATH", default=None, help="write to a file instead of stdout")
    if budget:
        sp.add_argument("--budget-bytes", type=int, default=None, metavar="N", help=f"memory budget (default {DEFAULT_BUDGET_BYTES})")
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ghcodes`` argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="ghcodes",
        description="Z_{p^s}-additive generalized Hadamard codes: construction, Gray images, invariants, equivalences, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _command(sub, "construct", cmd_construct, budget=True)
    sp.add_argument("--type", required=True, metavar="T1,...,TS")
    sp.add_argument("--codewords", choices=("additive", "gray"), default=None, help="dump codewords instead of the generator")

    sp = _command(sub, "gray", cmd_gray)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--value", type=int, required=True)

    sp = _command(sub, "invariants", cmd_invariants, ("table", "json"), budget=True)
    sp.add_argument("--type", required=True, metavar="T1,...,TS")

    sp = _command(sub, "chain", cmd_chain, ("table", "json"))
    sp.add_argument("--type", required=True, metavar="T1,...,TS")

    sp = _command(sub, "equiv-check", cmd_equiv_check, ("json",), budget=True)
    sp.add_argument("--type-a", required=True, metavar="T1,...,TS")
    sp.add_argument("--type-b", required=True, metavar="T1,...,TS")
    sp.add_argument("--sets", choices=("auto", "always", "never"), default="auto", help="verify set equality of the mapped codes")

    sp = _command(sub, "classify", cmd_classify, ("csv", "table", "json"), budget=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--s", type=int, default=None, help="restrict to one ring level")
    sp.add_argument("--invariants", action="store_true", help="attach (r,k) per class within budget")
    sp.add_argument("--threads", type=int, choices=(1,), default=1, help="1, the one thread every census runs in")

    sp = _command(sub, "isolated", cmd_isolated, FORMATS)
    sp.add_argument("--t-max", type=int, required=True)

    sp = _command(sub, "tables", cmd_tables, FORMATS, budget=True)
    sp.add_argument("--t-min", type=int, required=True)
    sp.add_argument("--t-max", type=int, required=True)
    sp.add_argument("--kind", choices=("types", "bounds", "isolated"), default="types")
    sp.add_argument("--with-lower", action="store_true", help="bounds: include the (r,k) lower bound (materializes codes)")
    sp.set_defaults(usage_error=sp.error)

    sp = _command(sub, "verify", cmd_verify, ("table", "json"), budget=True)
    sp.add_argument("--type", required=True, metavar="T1,...,TS")
    sp.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    sp.add_argument("--pairs", type=int, default=GH_SAMPLE_PAIRS, metavar="N")
    sp.add_argument("--seed", type=int, default=GH_SAMPLE_SEED, metavar="N")
    sp.add_argument("--min-distance", action="store_true", help="also compute the minimum distance (full pair scan)")

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "tables":
        _check_kind(args)
    try:
        _check_limits(args)
        result = args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(result, args.format)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
