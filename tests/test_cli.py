"""End-to-end runs of the command-line entry point, in process."""

import csv
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcodes import cli
from ghcodes.cli import build_parser, main
from ghcodes.construction import GH_SAMPLE_SEED, build_bytes, build_gray_code, gray_bytes, materialization_bytes
from ghcodes.construction import phi_bytes, plane_bytes, sampled_gh_bytes, validate_type
from ghcodes.equivalence import chain_members, witness_bytes
from ghcodes.errors import CapacityError
from ghcodes.gray import _phi_table_cached

from sorted_key_code import set_equal


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# single-shot commands
# ---------------------------------------------------------------------------


def test_gray_golden_line(capsys):
    code, out, err = run(capsys, "gray", "--p", "3", "--s", "3", "--value", "13")
    assert code == 0
    assert out == "1 2 0 2 0 1 0 1 2\n"
    assert err == ""


def test_gray_rejects_out_of_range(capsys):
    code, out, err = run(capsys, "gray", "--p", "3", "--s", "2", "--value", "9")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_gray_range_error_comes_from_the_library(capsys):
    code, out, err = run(capsys, "gray", "--p", "3", "--s", "3", "--value", "27")
    assert code == 2
    assert out == ""
    assert "27 is not a residue mod 27" in err


def test_construct_descriptor_and_generator(capsys):
    code, out, _ = run(capsys, "construct", "--p", "3", "--type", "2,1")
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == {"p": 3, "s": 2, "type": [2, 1], "t": 4, "n": 27}
    assert lines[1] == " ".join(["1"] * 27)
    assert lines[2] == " ".join(str(v % 9) for v in range(27))
    assert lines[3] == " ".join(["0"] * 9 + ["3"] * 9 + ["6"] * 9)
    assert len(lines) == 4


def test_construct_gray_dump_matches_library(capsys):
    code, out, _ = run(capsys, "construct", "--p", "3", "--type", "1,1", "--codewords", "gray")
    assert code == 0
    lines = out.splitlines()
    words = np.array([[int(v) for v in line.split()] for line in lines[1:]])
    gc = build_gray_code(validate_type(3, (1, 1)))
    assert words.shape == (27, 9)
    assert set_equal(gc, words.astype(gc.words.dtype))


def test_construct_additive_dump_count(capsys):
    code, out, _ = run(capsys, "construct", "--p", "2", "--type", "1,1", "--codewords", "additive")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 1 + 8  # descriptor + 2^(t+1) codewords


def test_invariants_table_and_json(capsys):
    code, out, _ = run(capsys, "invariants", "--p", "3", "--type", "2,1")
    assert code == 0
    assert out == "r=6 k=3 linear=false\n"

    code, out, _ = run(capsys, "invariants", "--p", "3", "--type", "2,1", "--format", "json")
    assert json.loads(out) == {"p": 3, "type": [2, 1], "r": 6, "k": 3, "linear": False}


def test_chain_listing(capsys):
    code, out, _ = run(capsys, "chain", "--p", "3", "--type", "1,0,2,1")
    assert code == 0
    assert out.splitlines() == [
        "representative 3,3 position 3 members 4",
        "  1: 3,3 (s=2)",
        "  2: 1,2,2 (s=3)",
        "  3: 1,0,2,1 (s=4)",
        "  4: 1,0,0,2,0 (s=5)",
    ]


def test_chain_json(capsys):
    code, out, _ = run(capsys, "chain", "--p", "3", "--type", "1,0,2,1", "--format", "json")
    doc = json.loads(out)
    assert doc["representative"] == [3, 3]
    assert doc["position"] == 3
    assert doc["members"] == [[3, 3], [1, 2, 2], [1, 0, 2, 1], [1, 0, 0, 2, 0]]


def test_verify_with_min_distance(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--type", "1,1", "--min-distance")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gh PASS mode=exhaustive pairs=351"
    assert lines[1] == "min_distance 6 expected 6"


def test_verify_refuses_a_type_of_length_one(capsys):
    # at t = 0 the expected distance p^(t-1) (p-1) was the float 2/3, so the one-word check exited 1, a FAIL
    code, out, err = run(capsys, "verify", "--p", "3", "--type", "1", "--min-distance")
    assert (code, out) == (2, "")
    assert err == "error: verify needs t >= 1, type (1) has t = 0\n"


@pytest.mark.parametrize("option,value", [("--pairs", "0"), ("--pairs", "-4"), ("--seed", "-1")])
@pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
def test_verify_refuses_pair_counts_and_seeds_that_check_nothing(capsys, option, value, mode):
    # a sampled check of no pairs passed, and a negative seed crashed inside numpy with exit 1, a FAIL's code;
    # the refusal comes before the Gray image of (3,3) at t = 8, 129 MB, is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--p", "3", "--type", "3,3", "--mode", mode, option, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: {option[2:]} must be {'>= 1' if option == '--pairs' else '>= 0'}, got {value}\n"
    assert peak < 2**20, peak


@pytest.mark.parametrize(
    "mode,words,passes",
    [("exhaustive", None, 1), ("sampled", None, 1), ("exhaustive", "repeated", 2), ("sampled", "repeated", 1)],
)
def test_verify_counts_pairs_once_when_the_exhaustive_pass_completes(capsys, monkeypatch, mode, words, passes):
    """An exhaustive GH pass that ends without a failing pair already counted every N_0;
    a sampled pass, or one stopped at a failing pair, leaves the distance to min_distance."""
    from ghcodes import construction

    calls = []
    real = construction._pair_counts
    monkeypatch.setattr(construction, "_pair_counts", lambda *a: calls.append(a) or real(*a))
    if words == "repeated":  # a repeated word: the GH pass fails and the distance is 0
        gc = build_gray_code(validate_type(3, (1, 1)))
        broken = np.vstack([gc.words[:-1], gc.words[:1]])
        monkeypatch.setattr(cli, "build_gray_code", lambda *a: construction.GrayCode(gc.sig, broken))
    code, out, _ = run(capsys, "verify", "--p", "3", "--type", "1,1", "--mode", mode, "--pairs", "500", "--min-distance")
    assert out.splitlines()[1] == ("min_distance 6 expected 6" if words is None else "min_distance 0 expected 6")
    assert code == (0 if words is None else 1)
    assert len(calls) == passes


def test_verify_sampled_mode(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--type", "2,0", "--mode", "sampled",
        "--pairs", "500", "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gh"]["passed"] is True
    assert doc["gh"]["mode"] == "sampled"
    assert doc["gh"]["pairs_checked"] == 500


# ---------------------------------------------------------------------------
# equivalence verdicts and exit codes
# ---------------------------------------------------------------------------


def test_equiv_check_pass(capsys):
    code, out, _ = run(capsys, "equiv-check", "--p", "3", "--type-a", "2,1", "--type-b", "1,1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert doc["representative"] == [2, 1]
    assert doc["positions"] == [1, 2]
    assert doc["mode"] == "set-equality"
    witness = doc["witness"]
    assert sorted(witness) == list(range(1, 82))  # a permutation of 1..81


def test_equiv_check_fail_exit_code(capsys):
    code, out, _ = run(capsys, "equiv-check", "--p", "3", "--type-a", "3,0", "--type-b", "2,2")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "FAIL"
    assert doc["witness"] is None
    assert "distinct representatives" in doc["detail"]


def test_equiv_check_forced_sets_over_budget(capsys):
    code, out, err = run(
        capsys, "equiv-check", "--p", "3", "--type-a", "2,1", "--type-b", "1,1,0",
        "--sets", "always", "--budget-bytes", "64",
    )
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("p,rep", [(2, (3, 12)), (3, (2, 7)), (5, (2, 4))])
def test_equiv_check_budget_counts_the_rendered_witness(capsys, p, rep):
    # the longest witnesses the benchmark renders: at p = 2 its 1-based image and JSON text
    # peaked at 9.37 MB against the 8.45 MB of its composition alone
    members = chain_members(validate_type(p, rep)).members
    length = members[0].gray_length
    need = witness_bytes(length) + cli._witness_json_bytes(length)
    argv = ["equiv-check", "--p", str(p), "--type-a", ",".join(map(str, rep))]
    argv += ["--type-b", ",".join(map(str, members[-1].ts)), "--sets", "never"]
    for budget in (need, need - 1):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, *argv, "--budget-bytes", str(budget))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        doc = json.loads(out)
        assert code == 0 and (doc["verdict"], doc["mode"]) == ("PASS", "algebra-only")
        assert (doc["witness"] is not None) == (budget == need)
        assert peak <= budget, (budget, peak)


def test_malformed_type_is_input_error(capsys):
    code, out, err = run(capsys, "construct", "--p", "3", "--type", "2,x")
    assert code == 2
    assert "malformed" in err


def test_capacity_exit_code_on_construct(capsys):
    code, out, err = run(
        capsys, "construct", "--p", "3", "--type", "2,2", "--codewords", "gray",
        "--budget-bytes", "256",
    )
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--p", "3", "--type", "2,1", "--codewords", "gray"),
        ("construct", "--p", "3", "--type", "2,1", "--codewords", "additive"),
        ("verify", "--p", "3", "--type", "2,1"),
    ],
    ids=["construct-gray", "construct-additive", "verify"],
)
def test_a_held_image_is_refused_one_byte_under_its_estimate(capsys, argv):
    # one check before the code is built: the image's own build checks nothing again
    code, _, err = run(capsys, *argv, "--budget-bytes", "1")
    need = int(err.split("needs ~")[1].split()[0])
    assert code == 3
    assert run(capsys, *argv, "--budget-bytes", str(need - 1))[0] == 3
    assert run(capsys, *argv, "--budget-bytes", str(need))[0] == 0


def test_a_streamed_sampled_check_is_refused_one_byte_under_its_estimate(capsys):
    # (3,3) at t = 8: its image would be 129 MB, its planes are 30.9 MiB; nothing is built before the refusal
    a = validate_type(3, (3, 3))
    need = build_bytes(a) + sampled_gh_bytes(a)
    argv = ("verify", "--p", "3", "--type", "3,3", "--pairs", "1000", "--budget-bytes")
    run(capsys, *argv, "1")  # the parser, built once a process
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, str(need - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert f"needs ~{need} bytes" in err
    assert peak < 2**16, peak
    assert run(capsys, *argv, str(need)) == (0, "gh PASS mode=sampled pairs=1000\n", "")


@pytest.mark.parametrize("ts", [(3, 2), (2, 0, 2), (1, 0, 0, 0, 0, 0, 0, 0)])
def test_a_streamed_sampled_check_stays_within_its_estimate(capsys, ts):
    # p = 3, t = 7: an image would be 14.3 MB, the planes are 3.5 MiB; the phi table is built cold, and
    # at s = 8 it is as large as the image
    a = validate_type(3, ts)
    _phi_table_cached.cache_clear()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--p", "3", "--type", ",".join(map(str, ts)), "--pairs", "20000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "gh PASS mode=sampled pairs=20000\n")
    assert peak <= build_bytes(a) + sampled_gh_bytes(a), peak
    assert peak - phi_bytes(a.params) < gray_bytes(a) / 2, peak


def test_a_sampled_check_with_the_distance_budgets_the_image_and_its_planes(capsys):
    a = validate_type(3, (2, 0, 2))
    code, _, err = run(capsys, "verify", "--p", "3", "--type", "2,0,2", "--min-distance", "--budget-bytes", "1")
    assert code == 3
    assert f"needs ~{build_bytes(a) + materialization_bytes(a) + plane_bytes(a)} bytes" in err


@pytest.mark.parametrize("ts", [(3, 1), (2, 0, 1), (1, 0, 0, 0, 0, 0, 0)])
def test_a_sampled_check_with_the_distance_stays_within_its_estimate(capsys, ts):
    # p = 3, t = 6: the image (1.6 MB) and its bit planes are held beside the distance's pair scans, which
    # the one working set of the estimate covers; the phi table is built cold
    a = validate_type(3, ts)
    _phi_table_cached.cache_clear()
    argv = ("verify", "--p", "3", "--type", ",".join(map(str, ts)), "--mode", "sampled", "--pairs", "20000")
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv, "--min-distance")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "gh PASS mode=sampled pairs=20000\nmin_distance 486 expected 486\n")
    assert peak <= build_bytes(a) + materialization_bytes(a) + plane_bytes(a), peak


@pytest.mark.parametrize(
    "argv,status",
    [
        (("invariants", "--type", "2,8"), 3),
        (("verify", "--type", "2,8"), 3),
        (("construct", "--type", "2,8"), 3),
        (("construct", "--type", "2,8", "--codewords", "additive"), 3),
        (("classify", "--t", "11", "--invariants", "--format", "json"), 0),
    ],
    ids=["invariants", "verify", "construct", "construct-additive", "classify"],
)
def test_an_over_budget_command_builds_nothing(capsys, argv, status):
    # every estimate counts the build of the code and is checked before it: the build of (2,8) at
    # p = 3, t = 11 alone peaked at about 17 MB, and a census built each representative it then skipped
    budget = 2**20
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv[0], "--p", "3", *argv[1:], "--budget-bytes", str(budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == status, err
    assert peak <= budget, peak
    if status == 0:
        doc = json.loads(out)
        assert doc["skipped_representatives"]
        assert all(row["skipped"] for row in doc["rows"] if not row["linear"])


def dump_estimate_and_peak(ts, kind):
    """The bytes a codeword dump is checked for, and the tracemalloc peak of its result and rendered text."""
    argv = ["construct", "--p", "3", "--type", ts, "--codewords", kind]
    with pytest.raises(CapacityError) as exc:
        cli.cmd_construct(build_parser().parse_args([*argv, "--budget-bytes", "1"]))
    args = build_parser().parse_args(argv)
    cli._check_limits(args)
    _phi_table_cached.cache_clear()
    tracemalloc.start()
    try:
        cli._render(cli.cmd_construct(args), "table")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return exc.value.required_bytes, peak


@pytest.mark.parametrize("kind", ["gray", "additive"])
def test_dump_estimate_bounds_its_rows_and_text(kind):
    # t = 6; the text of a gray dump is twice the image, held three times over
    need, peak = dump_estimate_and_peak("3,1", kind)
    assert peak <= need, (peak, need)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["gray", "additive"])
def test_t7_dump_estimate_bounds_its_rows_and_text(kind):
    # the gray dump peaked at 82.5 MiB for its 13.7 MiB image, over the 55 MiB the 4x estimate gave
    need, peak = dump_estimate_and_peak("3,2", kind)
    assert peak <= need, (peak, need)


def test_t9_gray_dump_is_refused_under_the_default_budget(capsys):
    code, out, err = run(capsys, "construct", "--p", "3", "--type", "5,0", "--codewords", "gray")
    assert (code, out) == (3, "")
    assert err.startswith("error: codeword dump of type (5, 0) needs ~")


# ---------------------------------------------------------------------------
# classify / isolated / tables
# ---------------------------------------------------------------------------


def test_classify_csv_default(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--t", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "t", "s", "type", "representative", "position", "chain_len", "linear", "r", "k"]
    body = {tuple(r[3].split(",")): r for r in rows[1:]}
    assert len(rows) == 7
    r21 = body[("2", "1")]
    assert r21[4] == "2,1" and r21[5] == "1" and r21[7] == "false"
    assert r21[8] == "" and r21[9] == ""  # no invariants requested


def test_classify_json_with_invariants(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--t", "4", "--invariants", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class_count"] == 2
    assert doc["skipped_representatives"] == []
    by_type = {tuple(r["type"]): r for r in doc["rows"]}
    assert by_type[(2, 1)]["r"] == 6 and by_type[(2, 1)]["k"] == 3
    assert by_type[(1, 1, 0)]["representative"] == [2, 1]
    assert by_type[(1, 3)]["linear"] is True


def test_classify_table_format(capsys):
    code, out, _ = run(capsys, "classify", "--p", "3", "--t", "4", "--format", "table")
    lines = out.splitlines()
    assert lines[0] == "p=3 t=4 length=3^4 classes=2"
    assert any("(2,1)" in line and "pos=1/2" in line for line in lines[1:])


def test_classify_single_level(capsys):
    code, out, _ = run(capsys, "classify", "--p", "2", "--t", "5", "--s", "2")
    rows = list(csv.reader(io.StringIO(out)))
    assert {r[3] for r in rows[1:]} == {"1,4", "2,2", "3,0"}


def test_isolated_table(capsys):
    code, out, _ = run(capsys, "isolated", "--p", "3", "--t-max", "5")
    assert code == 0
    assert out.splitlines() == ["t=3  (2,0)", "t=5  (3,0)  (2,0,0)"]


def test_isolated_json(capsys):
    code, out, _ = run(capsys, "isolated", "--p", "3", "--t-max", "7", "--format", "json")
    doc = json.loads(out)
    assert doc["isolated"]["7"] == [[4, 0], [2, 1, 0], [2, 0, 0, 0]]


def test_tables_types_small_range(capsys):
    code, out, _ = run(capsys, "tables", "--p", "3", "--t-min", "4", "--t-max", "4")
    assert code == 0
    assert out.splitlines() == [
        "t=4 s=2  (2,1) -> (6,3)",
        "t=4 s=3  (1,1,0) -> (6,3)",
    ]


def test_tables_types_says_none_when_every_type_is_linear(capsys):
    # every type up to t = 2 is linear, so there is no row: the table said so with one blank line
    code, out, _ = run(capsys, "tables", "--kind", "types", "--p", "3", "--t-min", "1", "--t-max", "2")
    assert (code, out) == (0, "none\n")


def test_tables_types_csv(capsys):
    code, out, _ = run(capsys, "tables", "--p", "3", "--t-min", "4", "--t-max", "4", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "t", "s", "type", "r", "k", "linear"]
    assert rows[1] == ["3", "4", "2", "2,1", "6", "3", "false"]
    assert rows[2] == ["3", "4", "3", "1,1,0", "6", "3", "false"]


def test_tables_bounds_with_notes(capsys):
    code, out, _ = run(capsys, "tables", "--p", "3", "--t-min", "3", "--t-max", "7", "--kind", "bounds")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["t", "types(all", "s)", "classes(all", "s)*", "types(reps)", "classes(reps)*", "lower(r,k)"]
    assert lines[1].split() == ["3", "2", "2", "2", "2", "-"]
    assert lines[2].split() == ["4", "3", "3", "2", "2", "-"]
    assert any(line.startswith("* ") for line in lines)
    notes = [line for line in lines if line.startswith("note: ")]
    assert "note: t=4 types_all_s: computed 3, previously reported 2" in notes
    assert "note: t=7 classes_reps: computed 12, previously reported 11" in notes


def test_tables_bounds_csv(capsys):
    code, out, _ = run(capsys, "tables", "--p", "2", "--t-min", "3", "--t-max", "6", "--kind", "bounds", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "types_all_s", "classes_all_s", "types_reps", "classes_reps", "lower_rk"]
    assert [r[0] for r in rows[1:]] == ["3", "4", "5", "6"]
    assert [r[3] for r in rows[1:]] == ["1", "1", "3", "3"]


def test_tables_isolated_kind(capsys):
    code, out, _ = run(capsys, "tables", "--p", "3", "--t-min", "3", "--t-max", "5", "--kind", "isolated")
    assert out.splitlines() == ["t=3  (2,0)", "t=5  (3,0)  (2,0,0)"]


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "word.txt"
    code, out, _ = run(capsys, "gray", "--p", "3", "--s", "3", "--value", "13", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "1 2 0 2 0 1 0 1 2\n"


def test_repeat_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "classify", "--p", "3", "--t", "5", "--format", "json")
    _, second, _ = run(capsys, "classify", "--p", "3", "--t", "5", "--format", "json")
    assert first == second

    _, a, _ = run(capsys, "equiv-check", "--p", "3", "--type-a", "2,2", "--type-b", "1,1,1")
    _, b, _ = run(capsys, "equiv-check", "--p", "3", "--type-a", "2,2", "--type-b", "1,1,1")
    assert a == b


def test_honoured_tables_options_still_work(capsys):
    code, out, _ = run(capsys, "tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "4", "--with-lower", "--budget-bytes", str(2**30))
    assert code == 0
    assert out.splitlines()[1].split()[-1] != "-"  # the lower (r,k) column is filled
    code, out, _ = run(capsys, "tables", "--kind", "types", "--p", "3", "--t-min", "4", "--t-max", "4", "--budget-bytes", "64")
    assert code == 0
    assert "skipped" in out
    with pytest.raises(SystemExit) as exc:  # no kind of tables has --threads
        main(["tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "4", "--threads", "1"])
    assert exc.value.code == 2


def test_classify_takes_only_one_thread(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "3", "--t", "5", "--invariants", "--threads", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    for fmt in ("csv", "table", "json"):
        argv = ("classify", "--p", "3", "--t", "5", "--invariants", "--format", fmt)
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--threads", "1") == plain


@pytest.mark.parametrize("kind", ["types", "bounds", "isolated"])
@pytest.mark.parametrize("t_min,t_max", [(5, 4), (9, 4), (-3, 4), (0, 4), (0, 0)])
def test_tables_rejects_an_empty_or_nonpositive_t_range(capsys, kind, t_min, t_max):
    code, out, err = run(capsys, "tables", "--kind", kind, "--p", "3", "--t-min", str(t_min), "--t-max", str(t_max))
    want = "empty t range" if t_min > t_max else "--t-min must be >= 1"
    assert code == 2 and out == "" and want in err


@pytest.mark.parametrize("kind", ["types", "isolated"])
def test_tables_accepts_a_t_range_from_1(capsys, kind):
    code, out, _ = run(capsys, "tables", "--kind", kind, "--p", "3", "--t-min", "1", "--t-max", "2", "--format", "json")
    assert code == 0 and out


# ---------------------------------------------------------------------------
# byte goldens of every (command, format) pair and the options each offers
# ---------------------------------------------------------------------------

# (argv, exit code, stdout): the stdout literally, or its sha256 when long
GOLDEN = [
    (
        ("gray", "--p", "3", "--s", "3", "--value", "13"),
        0,
        "1 2 0 2 0 1 0 1 2\n",
    ),
    (
        ("construct", "--p", "3", "--type", "2,1"),
        0,
        '{"p":3,"s":2,"type":[2,1],"t":4,"n":27}\n'
        "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n"
        "0 1 2 3 4 5 6 7 8 0 1 2 3 4 5 6 7 8 0 1 2 3 4 5 6 7 8\n"
        "0 0 0 0 0 0 0 0 0 3 3 3 3 3 3 3 3 3 6 6 6 6 6 6 6 6 6\n",
    ),
    (
        ("construct", "--p", "3", "--type", "1,1", "--codewords", "additive"),
        0,
        "sha256:6789e981bfbea2f8133384b24d54c0b4a07642f40226467c0a4ce1f7688aed6f",
    ),
    (
        ("construct", "--p", "3", "--type", "1,1", "--codewords", "gray"),
        0,
        "sha256:f95361248cba083aaf984ffa7015cace6bd3aef14f44d3eb3e4315a0e51ad226",
    ),
    (
        ("invariants", "--p", "3", "--type", "2,1"),
        0,
        "r=6 k=3 linear=false\n",
    ),
    (
        ("invariants", "--p", "3", "--type", "2,1", "--format", "json"),
        0,
        '{"p":3,"type":[2,1],"r":6,"k":3,"linear":false}\n',
    ),
    (
        ("chain", "--p", "3", "--type", "1,0,2,1"),
        0,
        "representative 3,3 position 3 members 4\n"
        "  1: 3,3 (s=2)\n"
        "  2: 1,2,2 (s=3)\n"
        "  3: 1,0,2,1 (s=4)\n"
        "  4: 1,0,0,2,0 (s=5)\n",
    ),
    (
        ("chain", "--p", "3", "--type", "1,0,2,1", "--format", "json"),
        0,
        '{"p":3,"type":[1,0,2,1],"representative":[3,3],"position":3,"chain_len":4,"members":[[3,3],[1,2,2],[1,0,2,1],[1,0,0,2,0]]}\n',
    ),
    (
        ("equiv-check", "--p", "3", "--type-a", "2,1", "--type-b", "1,1,0"),
        0,
        '{"verdict":"PASS","representative":[2,1],"positions":[1,2],"witness":[1,28,55,2,29,56,3,30,57,4,31,58,5,32,59,6,33,60,7,34,61,8,35,62,9,36,63,10,37,64,11,38,65,12,39,66,13,40,67,14,41,68,15,42,69,16,43,70,17,44,71,18,45,72,19,46,73,20,47,74,21,48,75,22,49,76,23,50,77,24,51,78,25,52,79,26,53,80,27,54,81],"mode":"set-equality"}\n',
    ),
    (
        ("equiv-check", "--p", "3", "--type-a", "2,2", "--type-b", "1,0,1,0", "--sets", "never"),
        0,
        "sha256:1fa0f39daeb3df96a60e60c2150befad8f3a835039899e526a537e2a59cec79a",
    ),
    # the longest witnesses the benchmark renders, written from their int64 images (digests taken
    # when they were written from Python lists by json.dumps)
    (
        ("equiv-check", "--p", "2", "--type-a", "3,12", "--type-b", "1,0,0,0,0,0,0,0,0,0,0,0,2,0", "--sets", "never"),
        0,
        "sha256:fc8d1a4c1087faf72e7ac0ba23a0d21d28890e04f1e95ddb2169e5b2c5fc9396",
    ),
    (
        ("equiv-check", "--p", "3", "--type-a", "2,7", "--type-b", "1,0,0,0,0,0,0,1,0", "--sets", "never"),
        0,
        "sha256:674d6417645f9f56e4058bb27fc1dc338948e4203c1146a60d14380e01eb2218",
    ),
    (
        ("equiv-check", "--p", "5", "--type-a", "2,4", "--type-b", "1,0,0,0,1,0", "--sets", "never"),
        0,
        "sha256:a7bf3179350fdc39808cad4db3d63432e97f091c6fe61fc3d90da91eeb551c49",
    ),
    (
        ("equiv-check", "--p", "3", "--type-a", "3,0", "--type-b", "2,2"),
        1,
        '{"verdict":"FAIL","representative":null,"positions":[1,1],"witness":null,"mode":"algebra-only","detail":"distinct representatives (3, 0) and (2, 2)"}\n',
    ),
    (
        ("classify", "--p", "3", "--t", "4"),
        0,
        "p,t,s,type,representative,position,chain_len,linear,r,k\n"
        '3,4,2,"1,3",4,2,5,true,,\n'
        '3,4,2,"2,1","2,1",1,2,false,,\n'
        '3,4,3,"1,0,2",4,3,5,true,,\n'
        '3,4,3,"1,1,0","2,1",2,2,false,,\n'
        '3,4,4,"1,0,0,1",4,4,5,true,,\n'
        '3,4,5,"1,0,0,0,0",4,5,5,true,,\n',
    ),
    (
        ("classify", "--p", "3", "--t", "4", "--s", "2", "--format", "table"),
        0,
        "p=3 t=4 length=3^4 classes=2\n"
        "  s=2  (1,3)  linear  rep=(4) pos=2/5\n"
        "  s=2  (2,1)          rep=(2,1) pos=1/2\n",
    ),
    (
        ("classify", "--p", "3", "--t", "4", "--invariants", "--format", "csv"),
        0,
        "p,t,s,type,representative,position,chain_len,linear,r,k\n"
        '3,4,2,"1,3",4,2,5,true,5,5\n'
        '3,4,2,"2,1","2,1",1,2,false,6,3\n'
        '3,4,3,"1,0,2",4,3,5,true,5,5\n'
        '3,4,3,"1,1,0","2,1",2,2,false,6,3\n'
        '3,4,4,"1,0,0,1",4,4,5,true,5,5\n'
        '3,4,5,"1,0,0,0,0",4,5,5,true,5,5\n',
    ),
    (
        ("classify", "--p", "3", "--t", "4", "--invariants", "--format", "table"),
        0,
        "p=3 t=4 length=3^4 classes=2\n"
        "  s=2  (1,3)  linear  rep=(4) pos=2/5  (r,k)=(5,5)\n"
        "  s=2  (2,1)          rep=(2,1) pos=1/2  (r,k)=(6,3)\n"
        "  s=3  (1,0,2)  linear  rep=(4) pos=3/5  (r,k)=(5,5)\n"
        "  s=3  (1,1,0)          rep=(2,1) pos=2/2  (r,k)=(6,3)\n"
        "  s=4  (1,0,0,1)  linear  rep=(4) pos=4/5  (r,k)=(5,5)\n"
        "  s=5  (1,0,0,0,0)  linear  rep=(4) pos=5/5  (r,k)=(5,5)\n",
    ),
    (
        ("classify", "--p", "3", "--t", "4", "--invariants", "--format", "json"),
        0,
        "sha256:3b2ce5b97459891a3187e58c5de261701298b7294321f744c6819a4eaab5893d",
    ),
    (
        ("classify", "--p", "3", "--t", "6", "--invariants", "--format", "csv"),
        0,
        "sha256:4a9d8c2d07e7c831e6c9bf1e3711407d53dca7ca5855455229c28ea48786c1d0",
    ),
    (
        ("classify", "--p", "3", "--t", "6", "--invariants", "--format", "table"),
        0,
        "sha256:96514c115fb6d0cf5faa0dc9381712838b329e2b77f5550a992407a1041f4424",
    ),
    (
        ("classify", "--p", "3", "--t", "6", "--invariants", "--format", "json"),
        0,
        "sha256:46f697286c64fe812f720cc0e435f36f86c0397685d2d0aa994750997fac931c",
    ),
    (
        ("classify", "--p", "2", "--t", "16", "--format", "json"),
        0,
        "sha256:471bec3784168751bb33561b14c154d26ebc9fb21d7a7fb51384c1a0a8cfd34e",
    ),
    (
        ("classify", "--p", "2", "--t", "16", "--format", "csv"),
        0,
        "sha256:bd496a26f7eb8758344a16a7d5b1e0e43aeeef6d70358dbcfc2e2ce4be1e3386",
    ),
    (
        ("classify", "--p", "2", "--t", "16", "--format", "table"),
        0,
        "sha256:f98733d021399439a49f41d7abb8c81e1a54e7b086f5b18d48bc8fe458da0615",
    ),
    (
        ("isolated", "--p", "3", "--t-max", "5"),
        0,
        "t=3  (2,0)\n"
        "t=5  (3,0)  (2,0,0)\n",
    ),
    (
        ("isolated", "--p", "3", "--t-max", "5", "--format", "csv"),
        0,
        "t,type\n"
        '3,"2,0"\n'
        '5,"3,0"\n'
        '5,"2,0,0"\n',
    ),
    (
        ("isolated", "--p", "3", "--t-max", "5", "--format", "json"),
        0,
        '{"p":3,"t_max":5,"isolated":{"3":[[2,0]],"5":[[3,0],[2,0,0]]}}\n',
    ),
    (
        ("isolated", "--p", "3", "--t-max", "2"),
        0,
        "none\n",
    ),
    (
        ("tables", "--p", "3", "--t-min", "4", "--t-max", "5"),
        0,
        "t=4 s=2  (2,1) -> (6,3)\n"
        "t=4 s=3  (1,1,0) -> (6,3)\n"
        "t=5 s=2  (2,2) -> (7,4)\n"
        "t=5 s=2  (3,0) -> (11,3)\n"
        "t=5 s=3  (1,1,1) -> (7,4)\n"
        "t=5 s=3  (2,0,0) -> (13,2)\n"
        "t=5 s=4  (1,0,1,0) -> (7,4)\n",
    ),
    (
        ("tables", "--p", "3", "--t-min", "4", "--t-max", "5", "--format", "csv"),
        0,
        "p,t,s,type,r,k,linear\n"
        '3,4,2,"2,1",6,3,false\n'
        '3,4,3,"1,1,0",6,3,false\n'
        '3,5,2,"2,2",7,4,false\n'
        '3,5,2,"3,0",11,3,false\n'
        '3,5,3,"1,1,1",7,4,false\n'
        '3,5,3,"2,0,0",13,2,false\n'
        '3,5,4,"1,0,1,0",7,4,false\n',
    ),
    (
        ("tables", "--p", "3", "--t-min", "4", "--t-max", "5", "--format", "json"),
        0,
        "sha256:b3bb15d16aec96562b9228483a069d7ceaafb6817e40455f5587a63559728348",
    ),
    (
        ("tables", "--kind", "types", "--p", "3", "--t-min", "4", "--t-max", "7", "--format", "json"),
        0,
        "sha256:c9265b9ac5c13677d71865aca5a6f106e11001126e8e2042dd091cc363a4c833",
    ),
    (
        ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "5", "--with-lower"),
        0,
        "  t  types(all s)  classes(all s)*  types(reps)  classes(reps)*  lower(r,k)\n"
        "  3             2                2            2               2           2\n"
        "  4             3                3            2               2           2\n"
        "  5             6                6            4               5           4\n"
        "* class-count bounds assume distinct representatives at one level are inequivalent\n"
        "note: t=4 types_all_s: computed 3, previously reported 2\n"
        "note: t=4 classes_all_s: computed 3, previously reported 2\n",
    ),
    (
        ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "5", "--format", "csv"),
        0,
        "t,types_all_s,classes_all_s,types_reps,classes_reps,lower_rk\n"
        "3,2,2,2,2,\n"
        "4,3,3,2,2,\n"
        "5,6,6,4,5,\n",
    ),
    (
        ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "5", "--with-lower", "--format", "json"),
        0,
        "sha256:58b59a25fa1476e3f6f0c569014df5cd0acd9e3f798ef70d6499cf4b698d209d",
    ),
    (
        ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "12"),
        0,
        "sha256:41632ae2d0806ce5b7aa154228178d90898b37203f87d5b13b6d03e44a8e06b0",
    ),
    (
        ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "12", "--format", "csv"),
        0,
        "sha256:2b9d9bffaead6422975cd63fef594e7d04ef359b03d79eb8f5a5356d7a968b46",
    ),
    (
        ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "12", "--format", "json"),
        0,
        "sha256:fb9fee0a89a8533206aa663a435828d4b5de6248ee2b2ad00924f100600aa590",
    ),
    (
        ("tables", "--kind", "isolated", "--p", "3", "--t-min", "4", "--t-max", "5"),
        0,
        "t=5  (3,0)  (2,0,0)\n",
    ),
    (
        ("verify", "--p", "3", "--type", "1,1", "--min-distance"),
        0,
        "gh PASS mode=exhaustive pairs=351\n"
        "min_distance 6 expected 6\n",
    ),
    (
        ("verify", "--p", "3", "--type", "1,1", "--min-distance", "--format", "json"),
        0,
        '{"p":3,"type":[1,1],"gh":{"passed":true,"mode":"exhaustive","pairs_checked":351,"reason":null},"min_distance":{"value":6,"expected":6}}\n',
    ),
    (
        ("verify", "--p", "3", "--type", "2,0", "--mode", "sampled", "--pairs", "500", "--seed", "7"),
        0,
        "gh PASS mode=sampled pairs=500\n",
    ),
    (
        ("verify", "--p", "3", "--type", "2,0", "--mode", "sampled", "--pairs", "500", "--seed", "7", "--format", "json"),
        0,
        '{"p":3,"type":[2,0],"gh":{"passed":true,"mode":"sampled","pairs_checked":500,"reason":null}}\n',
    ),
]


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, status, expected", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_bytes_are_golden(capsys, argv, status, expected):
    code, out, err = run(capsys, *argv)
    assert code == status
    assert err == ""
    assert (_digest(out) if expected.startswith("sha256:") else out) == expected


# JSON documents of every shape: nested dicts, lists and tuples, empty containers, big and negative
# ints, bools, None, floats (nan, infinities, -0.0), strings json must escape, and non-str keys
_JSON_STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "é漢字😀\u2028"]))
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    _JSON_STRINGS,
)
_JSON_KEYS = st.one_of(_JSON_STRINGS, st.integers(), st.booleans(), st.none(), st.floats(allow_nan=True))
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, inner, max_size=4),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_indented_json_is_what_json_dumps_writes(doc):
    assert cli._json(doc, 2) == json.dumps(doc, indent=2)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_compact_json_is_what_json_dumps_writes(doc):
    assert cli._json(doc) == json.dumps(doc, separators=(",", ":"))


# every digit count and limb boundary: 0, 10^k - 1, 10^k and 10^k + 1 for k <= 18, and the int64 maximum
_EDGE_INTS = sorted({0, 2**63 - 1, *(10**k + d for k in range(1, 19) for d in (-1, 0, 1))})
_STEP_LENGTHS = [1, cli._INT_STEP - 1, cli._INT_STEP, cli._INT_STEP + 1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_STEP_LENGTHS) | st.integers(1, 3 * cli._INT_STEP),
    st.integers(0, 2**20),
    st.integers(0, 2**32 - 1),
)
def test_an_int_array_is_written_as_json_dumps_writes_its_list(length, offset, seed):
    # the values come from one drawn seed, not one draw each, so no example outgrows Hypothesis's buffer
    rng = np.random.default_rng(seed)
    edge = np.array(_EDGE_INTS, dtype=np.int64)[rng.integers(0, len(_EDGE_INTS), size=length)]
    values = np.where(rng.random(length) < 0.5, edge, rng.integers(0, 2**63 - 1, size=length, endpoint=True))
    values[values > 2**63 - 1 - offset] -= offset  # values + offset stays an int64
    want = json.dumps((values.astype(object) + offset).tolist(), separators=(",", ":"))
    assert cli._json(cli._Ints(values, offset)) == want


@pytest.mark.parametrize("length", _STEP_LENGTHS)
def test_every_edge_int_is_written_at_every_step_boundary(length):
    for shift in range(len(_EDGE_INTS)):  # each edge int leads once
        values = np.resize(np.roll(np.array(_EDGE_INTS, dtype=np.int64), shift), length)
        assert cli._json(cli._Ints(values)) == json.dumps(values.tolist(), separators=(",", ":"))
    assert cli._json(cli._Ints(values[:0])) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--p", "3", "--t", "5", "--invariants"),
        ("tables", "--kind", "types", "--p", "3", "--t-min", "4", "--t-max", "5"),
        ("tables", "--kind", "bounds", "--p", "3", "--t-min", "3", "--t-max", "6"),
        ("tables", "--kind", "isolated", "--p", "3", "--t-min", "3", "--t-max", "6"),
        ("isolated", "--p", "3", "--t-max", "6"),
        ("invariants", "--p", "3", "--type", "2,1"),
        ("chain", "--p", "3", "--type", "1,1,0"),
        ("verify", "--p", "3", "--type", "1,1", "--min-distance"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_a_command_builds_only_the_format_asked_for(argv):
    # no table lines or CSV cells for a JSON request, and so on: the other forms stay empty
    formats = cli.FORMATS if argv[0] in ("classify", "tables", "isolated") else ("table", "json")
    for fmt in formats:
        args = build_parser().parse_args([*argv, "--format", fmt])
        if args.command == "tables":
            cli._check_kind(args)
        cli._check_limits(args)
        result = args.func(args)
        assert (result.lines != [], result.rows is not None, result.doc is not None) == (
            fmt == "table",
            fmt == "csv",
            fmt == "json",
        ), fmt


def test_every_indented_golden_document_is_what_json_dumps_writes(capsys, monkeypatch):
    render, seen = cli._render, []

    def checked(result, fmt):
        if fmt == "json" and result.indent:
            assert cli._json(result.doc, result.indent) == json.dumps(result.doc, indent=result.indent)
            seen.append(result)
        return render(result, fmt)

    monkeypatch.setattr(cli, "_render", checked)
    for argv, _, _ in GOLDEN:
        run(capsys, *argv)
    assert len(seen) == 7  # the classify and tables documents


def test_output_file_bytes_are_golden(tmp_path, capsys):
    target = tmp_path / "census.json"
    argv = ("classify", "--p", "3", "--t", "4", "--invariants", "--format", "json", "--output", str(target))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == ""
    expected = dict((g[0], g[2]) for g in GOLDEN)[argv[:-2]]
    assert _digest(target.read_bytes().decode("utf-8")) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("gray", "--p", "3", "--s", "3", "--value", "13", "--format", "json"),
        ("construct", "--p", "3", "--type", "2,1", "--format", "table"),
        ("invariants", "--p", "3", "--type", "2,1", "--format", "csv"),
        ("chain", "--p", "3", "--type", "2,1", "--format", "csv"),
        ("verify", "--p", "3", "--type", "1,1", "--format", "csv"),
        ("equiv-check", "--p", "3", "--type-a", "2,1", "--type-b", "1,1,0", "--format", "table"),
        ("equiv-check", "--p", "3", "--type-a", "2,1", "--type-b", "1,1,0", "--format", "csv"),
        ("gray", "--p", "3", "--s", "3", "--value", "13", "--budget-bytes", "64"),
        ("chain", "--p", "3", "--type", "2,1", "--budget-bytes", "64"),
        ("isolated", "--p", "3", "--t-max", "5", "--budget-bytes", "64"),
        ("classify", "--p", "3", "--t", "4", "--format", "xml"),
        # options of `tables` that the chosen kind ignores
        ("tables", "--kind", "isolated", "--p", "3", "--t-min", "3", "--t-max", "5", "--with-lower", "--threads", "4", "--budget-bytes", "1"),
        ("tables", "--kind", "isolated", "--p", "3", "--t-min", "3", "--t-max", "5", "--with-lower"),
        ("tables", "--kind", "isolated", "--p", "3", "--t-min", "3", "--t-max", "5", "--threads", "4"),
        ("tables", "--kind", "isolated", "--p", "3", "--t-min", "3", "--t-max", "5", "--threads", "0"),
        ("tables", "--kind", "isolated", "--p", "3", "--t-min", "3", "--t-max", "5", "--budget-bytes", "1"),
        ("tables", "--p", "3", "--t-min", "3", "--t-max", "5", "--budget-bytes", "64", "--kind", "isolated"),
        ("tables", "--kind", "types", "--p", "3", "--t-min", "3", "--t-max", "3", "--with-lower"),
        ("tables", "--p", "3", "--t-min", "3", "--t-max", "3", "--with-lower"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_options_a_command_does_not_honour_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: ghcodes" in captured.err


def test_tables_isolated_equals_isolated_from_t_min(capsys):
    _, out, _ = run(capsys, "isolated", "--p", "3", "--t-max", "7", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    expected = [rows[0]] + [r for r in rows[1:] if int(r[0]) >= 5]
    code, out, _ = run(capsys, "tables", "--kind", "isolated", "--p", "3", "--t-min", "5", "--t-max", "7", "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == expected
    assert len(expected) > 2

    _, out, _ = run(capsys, "isolated", "--p", "3", "--t-max", "7", "--format", "json")
    doc = json.loads(out)
    doc["isolated"] = {t: hits for t, hits in doc["isolated"].items() if int(t) >= 5}
    code, out, _ = run(capsys, "tables", "--kind", "isolated", "--p", "3", "--t-min", "5", "--t-max", "7", "--format", "json")
    assert code == 0
    assert json.loads(out) == doc


def test_successive_calls_are_independent(capsys, monkeypatch):
    seeds = []
    real = cli.is_gh_code
    monkeypatch.setattr(cli, "is_gh_code", lambda gc, **kw: seeds.append(kw["seed"]) or real(gc, **kw))
    assert build_parser() is build_parser()
    default_seed = ("verify", "--p", "3", "--type", "2,0", "--mode", "sampled", "--pairs", "500")
    _, alone, _ = run(capsys, *default_seed)
    _, seeded, _ = run(capsys, *default_seed, "--seed", "7", "--format", "json")
    _, after, _ = run(capsys, *default_seed)
    assert json.loads(seeded)["gh"]["passed"] is True
    assert after == alone
    assert seeds == [GH_SAMPLE_SEED, 7, GH_SAMPLE_SEED]
