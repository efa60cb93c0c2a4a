"""Runs of the experiment scripts and of the fingerprint script.

The experiment scripts use the public API only; running them with their
default arguments keeps an API change from breaking them silently.
"""

import hashlib
import json
import os
import re
import runpy
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.mark.parametrize("name", ["invariant_drift_catalog.py"])
def test_script_runs_with_defaults(name, tmp_path, monkeypatch, capsys):
    path = os.path.join(SCRIPTS, name)
    monkeypatch.chdir(tmp_path)  # anything a script writes lands in a scratch directory
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out


def _files(top: str) -> dict[str, str]:
    """Every file under ``top``, by its path relative to ``top``, with the SHA-256 of its bytes."""
    found = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = hashlib.sha256(fh.read()).hexdigest()
    return found


@pytest.fixture(scope="module")
def fingerprint(tmp_path_factory):
    """The lines of a default run and of a long_orbit and symmetry seed-3 run; the watched files before and after."""
    watched = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "scenarios", "out")]
    before = [_files(top) for top in watched]
    cwd = tmp_path_factory.mktemp("fingerprint")
    # bytecode writing on, so that the script itself must keep perfbench/ free of __pycache__
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    # a fresh interpreter per run: the script imports the benchmark's workloads module and patches _diff
    runs = [
        subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "fingerprint.py"), *argv],
            cwd=cwd, env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for argv in ([], ["--workloads", "long_orbit", "symmetry", "--seeds", "3"])
    ]
    return runs, before, [_files(top) for top in watched]


PASS_LINE = re.compile(
    r"(\w+ seed=\d+) pass=(\d)(?: diff_calls=(\d+) nodes_stored=(\d+) parse_calls=(\d+) parsed_chars=(\d+))?"
    r" integrations=(\d+) sha256=([0-9a-f]{64})"
)


def _passes(lines: list[str]) -> dict[str, list[tuple]]:
    """For each workload and seed, the fields of its pass lines in order: pass, census counts, digest."""
    passes = {}
    for line in lines:
        found = PASS_LINE.fullmatch(line)
        if found:
            passes.setdefault(found[1], []).append(found.groups()[1:])
    return passes


def test_fingerprint_leaves_the_checkout_as_it_was(fingerprint):
    # the script imports perfbench/ and runs the scenarios in a copy; it writes neither
    _, before, after = fingerprint
    assert after == before


def test_fingerprint_scenarios_run_on_a_copy(fingerprint):
    scenarios = os.path.join(ROOT, "scenarios")
    names = sorted(n for n in os.listdir(scenarios) if n.endswith(".json"))
    outputs = set()
    for name in names:
        with open(os.path.join(scenarios, name)) as fh:
            outputs.update(json.load(fh)["outputs"].values())
    lines = fingerprint[0][0]
    runs = [line.split(" exit=")[0] for line in lines if " exit=0 stdout=" in line]
    assert runs == [*names, "audit-all"]
    files = [line.split() for line in lines if line.startswith("out/")]
    assert {name for name, _ in files} == outputs
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in files)


def test_fingerprint_checks_hold_and_repeat(fingerprint):
    lines = [line for line in fingerprint[0][0] if line.startswith("symmetry seed=3 pass=") and " value=" in line]
    assert lines and all(line.endswith(" holds=True") for line in lines)
    passes = [[line.replace(f" pass={n} ", " ") for line in lines if f" pass={n} " in line] for n in (1, 2, 3)]
    assert passes[0] == passes[1] == passes[2] and len(passes[0]) * 3 == len(lines)


def test_fingerprint_census_counts_repeat(fingerprint):
    passes = _passes(fingerprint[0][0])
    assert [key.split()[0] for key in passes][::3] == ["superposition", "long_orbit", "symmetry", "scenarios"]
    for key, (first, second, third) in passes.items():
        assert (first[:2], second[0], third[0]) == (("1", None), "2", "3")  # the warm-up prints no census
        assert second[1:] == third[1:], key  # every pass starts cold
        assert first[-2:] == second[-2:], key
    symmetry = passes["symmetry seed=3"][1]
    assert int(symmetry[1]) > 0 and int(symmetry[3]) > 0  # _diff and parse_expression calls


def test_fingerprint_trajectory_digests_repeat(fingerprint):
    default, narrow = fingerprint[0]
    passes = _passes(narrow)
    assert list(passes) == ["long_orbit seed=3", "symmetry seed=3"]
    assert set(narrow) <= set(default)  # two runs print the same lines for what both ran
    assert int(passes["long_orbit seed=3"][0][-2]) > 0
    assert passes["symmetry seed=3"][0][-2] == "0"  # symmetry integrates nothing
