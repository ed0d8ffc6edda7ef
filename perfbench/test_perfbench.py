"""Self-tests of the benchmark.

Run from the root of the checkout:  python3 -m pytest -q perfbench
Each workload runs once at its smallest size (``smoke``) and both ways,
untraced and traced; the results are shared by the tests below.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    return {(w, trace): run.measure(w, 0, 0, trace, size="smoke")
            for w in workloads.WORKLOADS for trace in (0, 1)}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_emits_exactly_the_declared_metrics(smoke, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for w in workloads.WORKLOADS:
        line = run.summary(smoke[w, trace])
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == declared, w
        assert line["correct"], (w, smoke[w, trace]["other_failures"])


def test_setup_below_wall(smoke):
    for w in workloads.WORKLOADS:
        metrics = smoke[w, 0]["metrics"]
        assert 0 < metrics["setup_s"] < metrics["wall_s"], w


def test_known_defect_counts_as_failed_but_keeps_correct(smoke):
    result = smoke["graphs", 1]
    assert result["correct"] and not result["other_failures"]
    assert result["failed"] == len(result["known_defect_failures"])
    assert result["metrics"]["ops_failed_ratio"] == (
        result["failed"] / result["attempted"])
    assert smoke["closed", 1]["metrics"]["ops_failed_ratio"] == 0


def test_each_nonzero_pairing_is_a_failed_check():
    output = json.dumps({"class_terms": 3, "pairings": [
        {"psi": [], "kappa": [2], "value": "51450"},
        {"psi": [], "kappa": [0, 1], "value": "0"}]})
    found, _ = checks.check_job(workloads.PAIRING, 0, output, {})
    assert [(name, ok) for name, ok, _ in found] == [
        ("exit", True), ("parse", True), ("nonzero_class", True),
        ("pairing:[]/[2]", False), ("pairing:[]/[0, 1]", True)]


def test_rebound_names_move_time_out_of_callers(smoke):
    metrics = smoke["graphs", 1]["metrics"]
    assert metrics["pixton.pixton_class.self_s"] < (
        0.5 * metrics["pixton.pixton_class.incl_s"])
    assert metrics["strata.enumerate_stable_graphs.graphs"] > 0


def test_wrong_reference_digest_raises_failed_ratio(smoke):
    reference = run.load_reference()
    key = "descendents open --degree 6"
    assert key in reference
    reference[key] = "0" * 64
    result = run.measure("closed", 0, 0, 1, size="smoke",
                         reference=reference)
    assert smoke["closed", 1]["metrics"]["ops_failed_ratio"] == 0
    assert result["metrics"]["ops_failed_ratio"] > 0
    assert not result["correct"]
    assert {f["check"] for f in result["other_failures"]} == {"digest"}


def test_every_job_has_a_reference_digest():
    reference = run.load_reference()
    missing = [checks.job_key(j) for j in workloads.all_jobs()
               if j[0] != "pairings" and checks.job_key(j) not in reference]
    assert not missing


def test_digest_ignores_graph_labelling_and_stats():
    a = {"count": 1, "wall_time_s": 0.5, "graphs": [{
        "vertices": [{"genus": 0}, {"genus": 1}], "legs": [0, 0, 1],
        "edges": [[[0, 0], [1, 0]]], "automorphisms": 1}]}
    b = {"count": 1, "wall_time_s": 9.0, "threads": 4, "graphs": [{
        "vertices": [{"genus": 1}, {"genus": 0}], "legs": [1, 1, 0],
        "edges": [[[0, 0], [1, 0]]], "automorphisms": 1}]}
    c = json.loads(json.dumps(b))
    c["graphs"][0]["legs"] = [1, 0, 1]
    assert checks.digest(a) == checks.digest(b) != checks.digest(c)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
