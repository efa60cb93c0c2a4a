"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the root of a checkout:

    python3 -m pytest perfbench/test_bench.py -q

They take about two minutes: every workload is traced twice with one seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SEED = 7


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _git_status() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    return subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with the same seed, and git status around them."""
    before = _git_status()
    args = ("--seed", str(SEED), "--seconds", "1", "--trace", "1")
    runs = {
        name: [_result(_bench("--workload", name, *args)) for _ in range(2)]
        for name in run.WORKLOADS
    }
    return runs, before, _git_status()


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_traced_runs_verify_and_report_every_layer_metric(traced):
    runs, _, _ = traced
    names = {name for name, _, _ in tracing.PER_LAYER}
    for results in runs.values():
        for result in results:
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == names


def test_traced_counters_repeat_exactly(traced):
    runs, _, _ = traced
    for workload, (first, second) in runs.items():
        for name, unit, _ in tracing.PER_LAYER:
            if unit == "count":
                assert first["metrics"][name] == second["metrics"][name], (workload, name)


def test_workloads_separate_the_layers(traced):
    runs, _, _ = traced
    value = {w: {k: m["value"] for k, m in r[0]["metrics"].items()} for w, r in runs.items()}
    samples = "ode.Trajectory.sample.calls"
    assert value["superposition"][samples] >= 100 * value["long_orbit"][samples]
    assert value["symmetry"]["ode.integrate.accepted_steps"] == 0
    share = "expressions.self_share"
    assert max(value, key=lambda w: value[w][share]) == "symmetry"


def test_runs_leave_the_working_tree_unchanged(traced):
    _, before, after = traced
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before


def test_end_to_end_run_reports_every_metric():
    args = ("--workload", "symmetry", "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    result = _result(_bench(*args))
    assert result["correct"]
    assert result["attempted"] >= worker.MIN_TIMINGS
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_verdicts_fail_on_nan_and_on_zero_samples():
    """A NaN among a check's terms, or a report that used nothing, is a failed check."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    accepted = workloads.Check("nan", lambda state: (0.0, 1), True, 1e-10)
    rejected = workloads.Check("nan", lambda state: (0.0, 1), False, 0.1)
    worst = workloads._worst([0.0, 1e-12, float("nan"), 1e-12])
    assert not workloads.holds(accepted, worst, 10)
    assert not workloads.holds(rejected, worst, 10)
    assert workloads.holds(accepted, workloads._worst([0.0, -1e-12]), 10)
    assert not workloads.holds(accepted, 0.0, 0)
    assert workloads._report_samples({"all_resolved": True, "entries": []}, 0) == 0
    assert workloads._report_samples({"kind": "eliezer-grey", "pass": True}, 0) == 0
    assert workloads._report_samples({"kind": "eliezer-grey", "pass": True}, 42) == 42


def test_fails_without_the_program():
    """In a directory holding only the benchmark, a run must fail and print no result."""
    os.makedirs(worker.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=worker.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        ignore = shutil.ignore_patterns("out", "__pycache__")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=ignore)
        args = ("--workload", "superposition", "--seed", "1", "--seconds", "1", "--trace", "0")
        proc = _bench(*args, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
