#!/usr/bin/env python3
"""Run one ghcodes command in-process and check its output and its peak memory.

The peak is ru_maxrss less its value once ghcodes is imported, so the
bound is on the command's own growth above the interpreter with numpy.
The bound is --bound-mib MiB, plus the Gray image of one type with
--plus-image P TYPE.  The output must equal --expect once stripped, or,
with --expect-json, parse as a JSON object that has each given key and
value; output that does not is shown as it came.  Exits 0 when the
command exits 0, its output is as expected and the growth is within the
bound; 1 otherwise.

    python3 scripts/peak_check.py --bound-mib 32 \\
        --expect-json '{"verdict": "PASS", "mode": "set-equality"}' \\
        -- equiv-check --p 3 --type-a 3,3 --type-b 1,0,0,2,0 --sets always
    python3 scripts/peak_check.py --bound-mib 32 --plus-image 3 3,1 \\
        --expect 'gh PASS mode=sampled pairs=1000' -- verify --p 3 --type 3,1 --mode sampled --pairs 1000
"""

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ghcodes import cli
from ghcodes.construction import gray_bytes, validate_type


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main() -> int:
    args = sys.argv[1:]
    if "--" not in args:
        sys.exit("usage: peak_check.py OPTIONS -- GHCODES-COMMAND ...")
    split = args.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bound-mib", type=int, required=True)
    ap.add_argument("--plus-image", nargs=2, metavar=("P", "TYPE"), help="add the Gray image of this type to the bound")
    want = ap.add_mutually_exclusive_group(required=True)
    want.add_argument("--expect", help="the whole output, stripped")
    want.add_argument("--expect-json", help="a JSON object whose keys the output's JSON must match")
    opts = ap.parse_args(args[:split])
    command = args[split + 1 :]

    bound = opts.bound_mib * 2**20
    if opts.plus_image:
        p, ts = opts.plus_image
        bound += gray_bytes(validate_type(int(p), [int(v) for v in ts.split(",")]))

    base = _maxrss_bytes()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(command)
    grown = _maxrss_bytes() - base

    text = out.getvalue().strip()
    if opts.expect is not None:
        shown, ok = text, text == opts.expect
    else:
        expected = json.loads(opts.expect_json)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        if isinstance(doc, dict):
            shown = " ".join(str(doc.get(key)) for key in expected)
            ok = all(doc.get(key) == value for key, value in expected.items())
        else:
            shown, ok = f"no JSON object in the output {text[:200]!r}", False
    print(shown, f"peak {grown / 2**20:.1f} MiB above baseline (bound {bound / 2**20:.1f} MiB)")
    return int(status != 0 or not ok or grown > bound)


if __name__ == "__main__":
    sys.exit(main())
