"""Command-line surface.

Subcommands: construct, gray, invariants, chain, equiv-check, classify,
isolated, tables, verify.  Each command returns a `Result` holding what it
computed in the one form ``--format`` asks for: text lines, CSV rows or a
JSON document.  `main` renders it and writes it to stdout or ``--output``.
A subcommand offers only the formats it renders:

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

import numpy as np

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
    gh_mode,
    is_gh_code,
    materialization_bytes,
    materialize_additive,
    materialize_gray,
    min_distance,
    plane_bytes,
    sampled_gh_bytes,
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
    """What one command computed, in the one form its --format asks for (the others stay empty)."""

    lines: "list[str]" = field(default_factory=list)  # text, the "table" format
    doc: object = None  # JSON document
    rows: "list[list] | None" = None  # CSV header row, then the data rows
    indent: "int | None" = None  # JSON style: None is compact on one line
    status: int = 0  # exit code


@dataclass(frozen=True)
class _Ints:
    """The ints ``values + offset`` of an integer array in a JSON document, each nonnegative int64.

    ``_json`` writes them as the JSON array of those ints, with no Python
    int per value and no full-length copy of ``values``.
    """

    values: np.ndarray
    offset: int = 0


def _json(doc, indent: "int | None" = None, end: str = "") -> str:
    """``doc`` as ``json.dumps`` writes it, keys in insertion order: compact on one line, or indented;
    then ``end``.

    Python's C encoder serves only compact documents and knows no arrays,
    so the text is joined here, once, from the scalar encoders json uses,
    byte for byte as json writes it, and an ``_Ints`` as ``json.dumps``
    writes the list of its ints.
    """
    out: "list[str]" = []
    if indent:
        _put(doc, out, "\n", " " * indent, ": ")
    else:
        _put(doc, out, "", "", ":")
    out.append(end)
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _put(value, out: "list[str]", pad: str, step: str, colon: str) -> None:
    """Append the pieces of ``value`` as ``json.dumps`` writes it at the depth where lines start with
    ``pad``: indented by ``step`` with ``colon`` ": ", or compact with both "" and ``colon`` ":".

    Ints inside a container are written in place, the commonest leaf, to
    save a call each.  Every int test is ``type(v) is int``, never
    ``isinstance``: a bool is an int, and ``int.__repr__(True)`` is "1".
    """
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is _Ints:
        out += _int_pieces(value.values, value.offset)
    elif (kind is list or kind is tuple or kind is dict) and not value:
        out.append("{}" if kind is dict else "[]")
    elif kind is list or kind is tuple:
        inner = pad + step
        sep = "," + inner
        out.append("[" + inner)
        for v in value:
            if type(v) is int:
                out.append(int.__repr__(v))
            else:
                _put(v, out, inner, step, colon)
            out.append(sep)
        out[-1] = pad + "]"  # the last separator closes the list
    elif kind is dict and all(type(k) is str for k in value):
        inner = pad + step
        sep = "," + inner
        out.append("{" + inner)
        for k, v in value.items():
            out.append(_encode_str(k) + colon)
            if type(v) is int:
                out.append(int.__repr__(v))
            else:
                _put(v, out, inner, step, colon)
            out.append(sep)
        out[-1] = pad + "}"
    else:
        # floats, non-str keys and every other type: json's own encoder, moved to this depth (JSON
        # text holds no raw newline, so every newline in it starts a line)
        out.append(json.dumps(value, indent=len(step) or None, separators=(",", colon)).replace("\n", pad))


_INT_STEP = 4096  # values written per step of _int_pieces: each of its buffers stays under 100 KiB


@functools.cache
def _digit_table() -> np.ndarray:
    """The 4 ASCII digits of each n < 10^4, zero-padded, one little-endian uint32 an entry: the bytes
    of an array of entries are their digits in order."""
    n = np.arange(10**4, dtype=np.uint16)
    digits = np.empty((10**4, 4), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        digits[:, j] = n // place % 10 + ord("0")
    return digits.view("<u4").ravel()


@functools.cache
def _keep_table(limbs: int) -> np.ndarray:
    """Row d - 1: the bytes a d-digit value keeps of its row, ``limbs`` entries of 4 digits and a
    comma entry: its last d digits and the comma."""
    width = 4 * limbs
    cols = np.arange(width + 4)
    return (cols >= width - np.arange(1, width + 1)[:, None]) & (cols <= width)


def _int_pieces(values: np.ndarray, offset: int) -> "list[str]":
    """The pieces of ``json.dumps((values + offset).tolist(), separators=(",", ":"))``, each value
    nonnegative int64.

    ``_INT_STEP`` values at a time go into a reused row per value: its 4-digit
    limbs from ``_digit_table``, one divmod by 10^4 a limb, then a comma.  The
    value's digit count picks its row of ``_keep_table``, and one boolean index
    keeps those bytes of the step, one piece.
    """
    if not len(values):
        return ["[]"]
    limbs = -(-len(str(int(values.max()) + offset)) // 4)
    table, keep_table = _digit_table(), _keep_table(limbs)
    powers = 10 ** np.arange(1, min(4 * limbs, 19), dtype=np.int64)  # a value has 1 + (powers <= it) digits
    size = min(_INT_STEP, len(values))
    rows = np.empty((size, limbs + 1), dtype=table.dtype)
    rows[:, limbs] = ord(",")
    row_bytes = rows.view(np.uint8).reshape(size, -1)
    keep = np.empty(row_bytes.shape, dtype=bool)
    value, limb = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    pieces = ["["]
    for start in range(0, len(values), size):
        m = min(size, len(values) - start)
        v, low = value[:m], limb[:m]
        np.add(values[start : start + m], offset, out=v)
        np.take(keep_table, np.searchsorted(powers, v, side="right"), axis=0, out=keep[:m], mode="clip")
        for j in range(limbs - 1, -1, -1):
            np.divmod(v, 10**4, out=(v, low))
            np.take(table, low, out=rows[:m, j], mode="clip")
        pieces.append(str(row_bytes[:m][keep[:m]], "ascii"))
    pieces[-1] = pieces[-1][:-1] + "]"  # the last comma closes the array
    return pieces


def _cell(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return value  # csv writes None as an empty cell


def _render(result: Result, fmt: str) -> str:
    if fmt == "json":
        return _json(result.doc, result.indent, "\n")
    if fmt == "csv":
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
        rows = materialize_additive(code) if kind == "additive" else materialize_gray(code).words
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
    if args.format == "json":
        return Result(doc={"p": sig.p, "type": list(sig.ts), "r": r, "k": k, "linear": linear})
    return Result([f"r={r} k={k} linear={str(linear).lower()}"])


def cmd_chain(args: argparse.Namespace) -> Result:
    """locate a type in its chain of equivalences"""
    sig = _sig(args)
    cp = chain_of(sig)
    chain = chain_members(cp.representative)
    if args.format == "json":
        return Result(
            doc={
                "p": sig.p,
                "type": list(sig.ts),
                "representative": list(cp.representative.ts),
                "position": cp.position,
                "chain_len": len(chain),
                "members": [list(m.ts) for m in chain],
            }
        )
    head = f"representative {cp.representative.label()} position {cp.position} members {len(chain)}"
    return Result([head, *(f"  {i}: {m.label()} (s={m.s})" for i, m in enumerate(chain, start=1))])


def _witness_json_bytes(length: int) -> int:
    """Bytes the rendered witness of ``length`` coordinates holds at most, beside the witness.

    Per coordinate at most d + 1 bytes of JSON text, where d is the number
    of digits of ``length``, the largest 1-based coordinate, and one more
    is its comma.  The text is held three times over: the pieces
    ``_int_pieces`` writes, their join with the rest of the document, and
    its encoding on the way out.  Beside them ``_int_pieces`` holds its
    step buffers, under 512 KiB.  Under tracemalloc, with stdout captured
    as pytest captures it, the whole command peaked at 2.68, 2.91 and 2.93
    times d + 1 bytes a coordinate above the witness's one int64 array
    (lengths 2^17, 3^10 and 5^7, d + 1 = 7, 6 and 6), and at 2.60 times
    at 2^20, its step buffers included.
    """
    return 3 * length * (len(str(length)) + 1) + 2**19


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
        "witness": _Ints(report.witness.image, 1) if report.witness is not None else None,  # 1-based
        "mode": report.mode,
    }
    if report.detail:
        doc["detail"] = report.detail
    return Result(doc=doc, status=0 if report.passed else 1)


def _census_docs(rows, keys) -> "list[dict]":
    """The fields ``keys`` of each census row as a JSON object, its ``ts`` as "type"."""
    docs = []
    for row in rows:
        fields = vars(row)
        docs.append({key: fields["ts" if key == "type" else key] for key in keys})
    return docs


def _census_cells(rows, keys) -> "list[list]":
    """A CSV table of the fields ``keys`` of the census rows, its ``ts`` as "type", where r and k of a
    skipped row read "skipped"."""
    cells = [list(keys)]
    for row in rows:
        fields = dict(vars(row), type=row.ts)
        if row.skipped:
            fields["r"] = fields["k"] = "skipped"
        cells.append([fields[key] for key in keys])
    return cells


def cmd_classify(args: argparse.Namespace) -> Result:
    """census of all types of one length"""
    c = census(args.t, args.p, s=args.s, with_invariants=args.invariants, budget_bytes=args.budget_bytes)
    if args.format == "json":
        keys = ("s", "type", "representative", "position", "chain_len", "linear", "r", "k", "skipped")
        doc = {
            "p": c.p,
            "t": c.t,
            "class_count": c.class_count,
            "skipped_representatives": [list(rep) for rep in c.skipped_reps],
            "rows": _census_docs(c.rows, keys),
        }
        return Result(doc=doc, indent=2)
    if args.format == "csv":
        keys = ("p", "t", "s", "type", "representative", "position", "chain_len", "linear", "r", "k")
        return Result(rows=_census_cells(c.rows, keys))
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
    return Result(lines)


def _isolated(p: int, t_min: int, t_max: int, fmt: str) -> Result:
    table = {t: hits for t, hits in sorted(isolated_types(t_max, p).items()) if t >= t_min}
    if fmt == "json":
        return Result(doc={"p": p, "t_max": t_max, "isolated": {str(t): [list(ts) for ts in hits] for t, hits in table.items()}})
    if fmt == "csv":
        return Result(rows=[["t", "type"], *([t, ts] for t, hits in table.items() for ts in hits)])
    return Result([f"t={t}  " + "  ".join(_label(ts) for ts in hits) for t, hits in table.items()] or ["none"])


def cmd_isolated(args: argparse.Namespace) -> Result:
    """single-member chains (equivalent to no other type)"""
    return _isolated(args.p, 0, args.t_max, args.format)


def _tables_types(args: argparse.Namespace) -> Result:
    rows = [
        row
        for t in range(args.t_min, args.t_max + 1)
        for row in census(t, args.p, with_invariants=True, budget_bytes=args.budget_bytes).rows
        if not row.linear
    ]
    if args.format == "json":
        return Result(doc=_census_docs(rows, ("p", "t", "s", "type", "r", "k", "skipped")), indent=2)
    if args.format == "csv":
        return Result(rows=_census_cells(rows, ("p", "t", "s", "type", "r", "k", "linear")))
    lines = [f"t={row.t} s={row.s}  {_label(row.ts)} -> {'skipped' if row.skipped else f'({row.r},{row.k})'}" for row in rows]
    return Result(lines or ["none"])


def _tables_bounds(args: argparse.Namespace) -> Result:
    report = bounds_report(args.p, args.t_min, args.t_max, with_lower=args.with_lower, budget_bytes=args.budget_bytes)
    if args.format == "json":
        doc = {
            "p": report.p,
            "assumption": report.assumption,
            "discrepancies": list(report.discrepancies),
            "rows": [asdict(r) for r in report.rows],
        }
        return Result(doc=doc, indent=2)
    lower = [None if r.lower_rk is None else (f"{r.lower_rk}+" if r.lower_rk_partial else str(r.lower_rk)) for r in report.rows]
    if args.format == "csv":
        cells = [["t", "types_all_s", "classes_all_s", "types_reps", "classes_reps", "lower_rk"]]
        cells += [[r.t, r.types_all_s, r.classes_all_s, r.types_reps, r.classes_reps, lo] for r, lo in zip(report.rows, lower)]
        return Result(rows=cells)
    # the * columns lean on the level-wise class-count assumption below
    lines = [f"{'t':>3} {'types(all s)':>13} {'classes(all s)*':>16} {'types(reps)':>12} {'classes(reps)*':>15} {'lower(r,k)':>11}"]
    for r, lo in zip(report.rows, lower):
        lines.append(
            f"{r.t:>3} {r.types_all_s:>13} {r.classes_all_s:>16} {r.types_reps:>12} {r.classes_reps:>15} {lo or '-':>11}"
        )
    lines.append(f"* {report.assumption}")
    lines.extend(f"note: {d}" for d in report.discrepancies)
    return Result(lines)


def cmd_tables(args: argparse.Namespace) -> Result:
    """rank/kernel, bounds or isolated tables over a range of t"""
    if args.t_min < 1:
        raise InputError(f"--t-min must be >= 1, got {args.t_min}")
    if args.t_min > args.t_max:
        raise InputError(f"empty t range: --t-min {args.t_min} > --t-max {args.t_max}")
    if args.kind == "isolated":
        return _isolated(args.p, args.t_min, args.t_max, args.format)
    if args.kind == "bounds":
        return _tables_bounds(args)
    return _tables_types(args)


def cmd_verify(args: argparse.Namespace) -> Result:
    """GH difference property and minimum distance of one type"""
    sig = _sig(args)
    if sig.t < 1:  # a Gray image of length 1 has no expected distance p^(t-1) (p-1)
        raise InputError(f"verify needs t >= 1, type {_label(sig.ts)} has t = {sig.t}")
    _check_gh_options(args.mode, args.pairs, args.seed)  # before the code is built
    sampled = gh_mode(args.mode, sig.size) == "sampled"
    if sampled and not args.min_distance:  # the bit planes are streamed from the p-basis: no Gray image is held
        _check_budget(f"sampled GH check of type {sig.ts}", build_bytes(sig) + sampled_gh_bytes(sig), args.budget_bytes)
        code = AdditiveCode.build(sig)
    else:
        code = build_gray_code(sig, args.budget_bytes, plane_bytes(sig) if sampled else 0)
    verdict = is_gh_code(code, mode=args.mode, pairs=args.pairs, seed=args.seed)
    ok = verdict.passed
    if args.min_distance:
        md = min_distance(code) if verdict._distance is None else verdict._distance
        expected = sig.p ** (sig.t - 1) * (sig.p - 1)
        ok = ok and md == expected
    status = 0 if ok else 1
    if args.format == "json":
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
            doc["min_distance"] = {"value": md, "expected": expected}
        return Result(doc=doc, status=status)
    lines = [
        f"gh {'PASS' if verdict.passed else 'FAIL'} mode={verdict.mode} pairs={verdict.pairs_checked}"
        + (f" reason={verdict.reason}" if verdict.reason else "")
    ]
    if args.min_distance:
        lines.append(f"min_distance {md} expected {expected}")
    return Result(lines, status=status)


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
