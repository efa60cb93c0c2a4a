"""Smoke runs of the experiment scripts with their default arguments.

The scripts use the public API only; running them keeps an API change from
breaking them silently.
"""

import os
import runpy
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
