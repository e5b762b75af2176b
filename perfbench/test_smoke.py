"""Smoke test of the benchmark itself, one tiny case per workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS, Case, check_invariants, check_verify, load_goldens, warmup_case

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def goldens():
    run.import_library()
    return load_goldens(run.ROOT)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(goldens, workload, trace):
    tiny = warmup_case(workload, goldens)
    metrics, _, tally = run.measure(workload, [tiny], tiny, 0, trace, seed=1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert tally.attempted > 0 and tally.failures == []


@pytest.mark.parametrize(
    "case",
    [
        # (1,1) over Z_9 has minimum distance 6, not 7
        Case(("verify", "--p", "3", "--type", "1,1", "--mode", "exhaustive", "--min-distance"), check_verify("exhaustive", 351, 7)),
        # right expectation, but the budget forces the capacity exit code 3
        Case(("invariants", "--p", "3", "--type", "2,1", "--budget-bytes", "1"), check_invariants(6, 3)),
    ],
    ids=["wrong-expected-value", "capacity-exit"],
)
def test_a_wrong_case_counts_as_failed(goldens, case):
    warm = warmup_case("gh_verify", goldens)
    _, _, tally = run.measure("gh_verify", [case], warm, 0, 0, seed=1)
    assert [f["case"] for f in tally.failures] == [case.label]
    assert tally.attempted == run.SETUP_RUNS + 2  # set-ups, in-process warm-up, one pass


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "chains", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
