"""Smoke runs of the experiment scripts with their default arguments.

The scripts use the public API only; running them keeps an API change from
breaking them silently.
"""

import json
import os
import re
import runpy
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("name", ["reduction_demo.py", "invariant_drift_catalog.py"])
def test_script_runs_with_defaults(name, tmp_path, monkeypatch, capsys):
    path = os.path.join(SCRIPTS, name)
    monkeypatch.chdir(tmp_path)  # reduction_demo writes orbit.csv to the working directory
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out


def test_output_digests_run_on_a_copy(monkeypatch, capsys):
    scenarios = os.path.join(os.path.dirname(SCRIPTS), "scenarios")
    tracked = sorted(os.listdir(os.path.join(scenarios, "out")))
    names = sorted(n for n in os.listdir(scenarios) if n.endswith(".json"))
    outputs = set()
    for name in names:
        with open(os.path.join(scenarios, name)) as fh:
            outputs.update(json.load(fh)["outputs"].values())
    path = os.path.join(SCRIPTS, "output_digests.py")
    monkeypatch.setattr(sys, "argv", [path])
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts its src/ first
    runpy.run_path(path, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    # every run wrote into the copy, none into the tracked outputs
    assert sorted(os.listdir(os.path.join(scenarios, "out"))) == tracked
    runs = [line.split(" exit=")[0] for line in lines if " exit=0 stdout=" in line]
    assert runs == [*names, "audit-all"]
    files = [line.split() for line in lines if line.startswith("out/")]
    assert {name for name, _ in files} == outputs
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in files)


def test_check_values_hold_and_repeat(tmp_path):
    # a fresh interpreter: the script imports the benchmark's workloads module
    path = os.path.join(SCRIPTS, "check_values.py")
    argv = [sys.executable, path, "--workloads", "symmetry", "--seeds", "3"]
    lines = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, check=True).stdout.splitlines()
    assert lines and all(line.startswith("symmetry seed=3 pass=") for line in lines)
    assert all(line.endswith(" holds=True") for line in lines)
    passes = [[line.replace(f" pass={n} ", " ") for line in lines if f" pass={n} " in line] for n in (1, 2)]
    assert passes[0] == passes[1] and len(passes[0]) * 2 == len(lines)


def test_cold_census_counts_repeat(tmp_path):
    # a fresh interpreter: the script imports the benchmark's workloads module and patches _diff
    path = os.path.join(SCRIPTS, "cold_census.py")
    out = subprocess.run([sys.executable, path], cwd=tmp_path, capture_output=True, text=True, check=True)
    counts = {}
    for line in out.stdout.splitlines():
        found = re.fullmatch(
            r"(\w+ seed=\d+) pass=(\d+) diff_calls=(\d+) nodes_stored=(\d+) parse_calls=(\d+) parsed_chars=(\d+)", line
        )
        assert found, line
        counts.setdefault(found[1], []).append((found[2], *map(int, found.groups()[2:])))
    workloads = [key.split()[0] for key in counts]
    assert workloads[::3] == ["superposition", "long_orbit", "symmetry", "scenarios"]
    for key, (second, third) in counts.items():
        assert (second[0], third[0]) == ("2", "3")
        assert second[1:] == third[1:], key  # every pass starts cold
    assert counts["symmetry seed=3"][0][1] > 0
    assert counts["symmetry seed=3"][0][3] > 0  # parse_expression calls


def test_trajectory_digests_repeat(tmp_path):
    # a fresh interpreter per run: the script imports the benchmark's workloads module
    path = os.path.join(SCRIPTS, "trajectory_digests.py")
    argv = [sys.executable, path, "--workloads", "long_orbit", "symmetry", "--seeds", "3"]
    first, second = (
        subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, check=True).stdout for _ in range(2)
    )
    assert first == second
    lines = first.splitlines()
    assert [line.split(" integrations=")[0] for line in lines] == ["long_orbit seed=3", "symmetry seed=3"]
    found = [re.fullmatch(r".* integrations=(\d+) sha256=([0-9a-f]{64})", line) for line in lines]
    assert all(found) and int(found[0][1]) > 0 and found[1][1] == "0"  # symmetry integrates nothing
