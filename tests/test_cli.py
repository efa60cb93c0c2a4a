import glob
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import epwb
from epwb import EPConfig, IntegrationSettings, ep_system, integrate, time_function
from epwb.cli import main


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def simulate_scenario(**extra):
    sc = {
        "kind": "simulate",
        "phi": "1",
        "g": "1",
        "interval": [0.0, 5.0],
        "initial": [1.0, 0.0],
        "outputs": {"csv": "orbit.csv", "report": "report.json"},
    }
    sc.update(extra)
    return sc


class TestSimulate:
    def test_equilibrium_run(self, tmp_path):
        path = write_scenario(tmp_path, simulate_scenario())
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["status"] == "completed"
        assert report["final_state"][0] == pytest.approx(1.0, abs=1e-9)
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == "t,x,xdot"
        for ln in lines[1:]:
            assert float(ln.split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_all_declared_outputs_exist(self, tmp_path):
        sc = simulate_scenario(outputs={"csv": "a.csv", "report": "c.json"})
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "c.json", "scenario.json"]
        assert (tmp_path / "a.csv").read_text().startswith("t,x,xdot\n")

    def test_csv_round_trips_the_trajectory(self, tmp_path):
        # 17 significant digits read back as the very floats integrate returned
        sc = simulate_scenario(
            phi="1+0.5*sin(t)", g="2", initial=[1.0, 0.3], interval=[0.0, 3.0],
            settings={"rtol": 1e-10},
        )
        assert run_cli(["run", str(write_scenario(tmp_path, sc))]) == 0
        cfg = EPConfig(phi=time_function("1+0.5*sin(t)"), g=time_function("2"))
        tr = integrate(ep_system(cfg), (1.0, 0.3), (0.0, 3.0), IntegrationSettings(rtol=1e-10))
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == "t,x,xdot"
        assert len(lines) == len(tr.times) + 1 > 10
        data = np.array([[float(s) for s in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(data[:, 0], tr.times)
        assert np.array_equal(data[:, 1:], tr.states)

    def test_outputs_resolve_relative_to_scenario_file(self, tmp_path, monkeypatch):
        nested = tmp_path / "inner"
        nested.mkdir()
        path = write_scenario(nested, simulate_scenario())
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", str(path)]) == 0
        assert (nested / "orbit.csv").exists()
        assert not (tmp_path / "orbit.csv").exists()

    def test_guard_stop_is_a_failed_run(self, tmp_path, capsys):
        # negative forcing pulls x to the axis; the guard ends the run early
        sc = simulate_scenario(phi="0", g="-1")
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is False
        assert report["status"] == "guard-stop"
        assert "check failed" in capsys.readouterr().err


class TestVerifySymmetry:
    def test_surviving_symmetry_passes(self, tmp_path):
        sc = {
            "kind": "verify-symmetry",
            "g": "(1+t)^4",
            "c0": 1.0,
            "m": 1.0,
            "interval": [0.0, 3.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["residual"] <= 1e-6

    def test_perturbed_coefficient_fails_and_still_reports(self, tmp_path, capsys):
        sc = {
            "kind": "verify-symmetry",
            "g": "(1+t)^4",
            "c0": 1.0,
            "m": 1.0,
            "phi": "(1+0.25)/((1+t)^2) + 0.1",
            "interval": [0.0, 3.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is False
        assert report["residual"] >= 1e-2
        assert "check failed" in capsys.readouterr().err

    def test_explicit_components(self, tmp_path):
        sc = {
            "kind": "verify-symmetry",
            "tau": "1",
            "xi": "0",
            "phi": "1",
            "g": "1",
            "interval": [0.0, 5.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["residual"] == 0.0

    @pytest.mark.parametrize("tau", [1, None, [1, 2], True], ids=["number", "null", "list", "bool"])
    def test_components_must_be_expression_strings(self, tmp_path, capsys, tau):
        sc = {
            "kind": "verify-symmetry",
            "tau": tau,
            "xi": "0",
            "phi": "1",
            "g": "1",
            "interval": [0.0, 5.0],
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 1
        assert "'tau' must be an expression string" in capsys.readouterr().err


class TestVerifyInvariant:
    def lorentz_scenario(self, **extra):
        sc = {
            "kind": "verify-invariant",
            "invariant": "lorentz",
            "phi": "4",
            "initial": [1.0, 0.0],
            "interval": [0.0, 10.0],
            "outputs": {"report": "report.json"},
        }
        sc.update(extra)
        return sc

    def test_constant_frequency_passes(self, tmp_path):
        path = write_scenario(tmp_path, self.lorentz_scenario())
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["drift"] <= 1e-9

    def test_ermakov_catalog_entry(self, tmp_path):
        sc = {
            "kind": "verify-invariant",
            "invariant": "ermakov",
            "phi": "1+0.5*sin(t)",
            "h2": 2.0,
            "initial": [1.0, 0.0],
            "interval": [0.0, 20.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0

    def test_the_threshold_key_sets_the_verdict(self, tmp_path):
        for threshold, code in ((1e-20, 2), (1.0, 0)):
            path = write_scenario(tmp_path, self.lorentz_scenario(threshold=threshold))
            assert run_cli(["run", str(path)]) == code

    @pytest.mark.parametrize("value", ("1e-20", "abc", "-1", "0", "nan"))
    def test_the_environment_does_not_set_the_threshold(self, tmp_path, monkeypatch, value):
        # a verdict and its report depend only on the scenario file and the code
        path = write_scenario(tmp_path, self.lorentz_scenario())
        monkeypatch.delenv("EPWB_TOL", raising=False)
        assert run_cli(["run", str(path)]) == 0
        plain = (tmp_path / "report.json").read_bytes()
        monkeypatch.setenv("EPWB_TOL", value)
        assert run_cli(["run", str(path)]) == 0
        assert (tmp_path / "report.json").read_bytes() == plain

    def test_report_shape(self, tmp_path):
        # constant frequency 2 from (q, p) = (1, 0): E / omega = 4 / 4 on every sample
        path = write_scenario(tmp_path, self.lorentz_scenario())
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report.pop("mean") == pytest.approx(1.0, abs=1e-9)
        assert report.pop("drift") <= 1e-9
        assert report == {
            "kind": "verify-invariant",
            "name": "lorentz",
            "interval": [0.0, 10.0],
            "samples": 200,
            "threshold": 1e-6,
            "pass": True,
        }

    def test_vanishing_frequency_is_a_failed_run(self, tmp_path, capsys):
        sc = self.lorentz_scenario(phi="1-t", interval=[0.0, 2.0])
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 2
        assert "run failed" in capsys.readouterr().err

    def test_nonpositive_frequency_message_prints_a_plain_time(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.lorentz_scenario(phi="0", interval=[0.5, 1.0]))
        assert run_cli(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "frequency squared 0.0 not positive at t=0.5" in err
        assert "np.float64" not in err


class TestReduce:
    def reduce_scenario(self, **extra):
        sc = {
            "kind": "reduce",
            "g": "(1+t)^4",
            "c0": 1.0,
            "m": 2.0,
            "interval": [0.0, 3.0],
            "initial": [1.0, 0.0],
            "outputs": {"csv": "orbit.csv", "report": "report.json"},
        }
        sc.update(extra)
        return sc

    def test_pipeline_report(self, tmp_path):
        path = write_scenario(tmp_path, self.reduce_scenario())
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["omega"] == 3.0
        assert report["sigma"] == 0.25
        assert report["autonomous_residual"] <= 1e-6
        assert report["abel_residual"] <= 1e-5
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == "T,X,V"
        first = [float(s) for s in lines[1].split(",")]
        assert first[1] == pytest.approx(2.0, abs=1e-12)
        assert first[2] == pytest.approx(-3.0, abs=1e-10)

    def test_decreasing_g_is_a_configuration_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.reduce_scenario(g="5-(t-1)^2"))
        assert run_cli(["run", str(path)]) == 1
        assert "G' is not positive at t=" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "sigma, code, message",
        [
            (0, 1, "configuration error: sigma must be nonzero"),
            (1e-300, 2, "run failed: chart image is not finite at t=0.0"),
        ],
    )
    def test_a_vanishing_time_scale_is_refused(self, tmp_path, capsys, sigma, code, message):
        # T' = sigma G'/G is 0 at sigma = 0, and its cube underflows to 0 at 1e-300
        path = write_scenario(tmp_path, self.reduce_scenario(sigma=sigma))
        assert run_cli(["run", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"epwb: {message}") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_wrong_sigma_fails(self, tmp_path):
        path = write_scenario(tmp_path, self.reduce_scenario(sigma=0.75))
        assert run_cli(["run", str(path)]) == 2

    def test_deterministic_outputs(self, tmp_path):
        path = write_scenario(tmp_path, self.reduce_scenario())
        assert run_cli(["run", str(path)]) == 0
        csv1 = (tmp_path / "orbit.csv").read_bytes()
        rep1 = (tmp_path / "report.json").read_bytes()
        (tmp_path / "orbit.csv").unlink()
        (tmp_path / "report.json").unlink()
        assert run_cli(["run", str(path)]) == 0
        assert (tmp_path / "orbit.csv").read_bytes() == csv1
        assert (tmp_path / "report.json").read_bytes() == rep1


class TestEliezerGrey:
    def test_circular_orbit(self, tmp_path):
        sc = {
            "kind": "eliezer-grey",
            "phi": "1",
            "initial": {"r": 1.0, "thetadot": 1.0},
            "interval": [0.0, 10.0],
            "outputs": {"csv": "orbit.csv", "report": "report.json"},
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["pass"] is True
        assert report["chart_qualified"] is False
        assert (tmp_path / "orbit.csv").read_text().splitlines()[0] == "t,r,rdot,theta,L"

    def test_forced_orbit_qualifies_for_chart(self, tmp_path):
        sc = {
            "kind": "eliezer-grey",
            "phi": "1",
            "k": "0.1",
            "initial": {"r": 1.0, "rdot": 0.0, "theta": 0.0, "thetadot": 1.0},
            "interval": [0.0, 10.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["chart_qualified"] is True

    def test_bad_initial_radius(self, tmp_path, capsys):
        sc = {
            "kind": "eliezer-grey",
            "phi": "1",
            "initial": {"r": -1.0, "thetadot": 1.0},
            "interval": [0.0, 1.0],
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "epwb: configuration error: initial radius must be positive, got -1.0\n"

    def test_a_list_initial_is_refused(self, tmp_path, capsys):
        sc = dict(_TABLES["eliezer-grey"], initial=[1.0, 0.0, 0.0, 1.0])
        assert run_cli(["run", str(write_scenario(tmp_path, sc))]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "epwb: configuration error: 'initial' must be an object with keys among"
            " ['r', 'rdot', 'theta', 'thetadot'], got [1.0, 0.0, 0.0, 1.0]"
        )

    def test_an_unknown_initial_key_is_refused(self, tmp_path, capsys):
        # a misspelled rdot would otherwise run with rdot = 0
        initial = {"r": 1.0, "thetadot": 1.0, "rdott": 0.5}
        sc = dict(_TABLES["eliezer-grey"], initial=initial, interval=[0.0, 5.0])
        assert run_cli(["run", str(write_scenario(tmp_path, sc))]) == 1
        assert "unknown initial keys ['rdott']" in capsys.readouterr().err


_TABLES = {
    "simulate": simulate_scenario(),
    "reduce": {
        "kind": "reduce",
        "g": "(1+t)^4",
        "c0": 1.0,
        "m": 2.0,
        "interval": [0.0, 3.0],
        "initial": [1.0, 0.0],
    },
    "eliezer-grey": {
        "kind": "eliezer-grey",
        "phi": "1",
        "k": "0.1",
        "initial": {"r": 1.0, "rdot": 0.0, "theta": 0.0, "thetadot": 1.0},
        "interval": [0.0, 10.0],
    },
}


def test_a_kind_without_a_table_refuses_a_csv(tmp_path, capsys):
    sc = {
        "kind": "verify-symmetry",
        "g": "exp(4*t)",
        "c0": 1.0,
        "m": 1.0,
        "interval": [0.0, 2.0],
        "outputs": {"csv": "table.csv"},
    }
    assert run_cli(["run", str(write_scenario(tmp_path, sc))]) == 1
    assert "unknown outputs keys ['csv'] (want ['report'])" in capsys.readouterr().err
    assert not (tmp_path / "table.csv").exists()


# per kind family (table, verdict only, ledger): keys a scenario might misspell
_MISSPELLED = {
    **{
        kind: dict(sc, outputs={"reprot": "out/r.json", "cvs": "out/o.csv"})
        for kind, sc in _TABLES.items()
    },
    "verify-symmetry": {
        "kind": "verify-symmetry",
        "g": "exp(4*t)",
        "c0": 1.0,
        "m": 1.0,
        "interval": [0.0, 2.0],
        "outputs": {"report": "out/r.json", "reprot": "out/s.json"},
    },
    "audit-all": {"kind": "audit-all", "outputs": {"ledgr": "out/l.json", "csv": "out/l.csv"}},
}


@pytest.mark.parametrize("kind", sorted(_MISSPELLED))
def test_an_unknown_outputs_key_is_refused_before_writing(tmp_path, capsys, kind):
    (tmp_path / "out").mkdir()
    assert run_cli(["run", str(write_scenario(tmp_path, _MISSPELLED[kind]))]) == 1
    assert "unknown outputs keys" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []


_VERIFY_ERMAKOV = {
    "kind": "verify-invariant",
    "invariant": "ermakov",
    "phi": "1+0.5*sin(t)",
    "h2": 2.25,
    "initial": [1.0, 0.0],
    "interval": [0.0, 20.0],
}
# per kind, output keys it does not write; over [0, 2000] the Ermakov run would
# stop with a step failure (exit 2), which must not hide the configuration error
_NOT_WRITTEN = {
    **{
        kind: dict(sc, outputs={"report": "out/r.json", "dat": "out/o.dat"})
        for kind, sc in _TABLES.items()
    },
    "verify-invariant": dict(_VERIFY_ERMAKOV, outputs={"reprot": "out/r.json"}),
    "verify-invariant-csv": dict(_VERIFY_ERMAKOV, outputs={"csv": "out/o.csv"}),
    "verify-invariant-failing": dict(
        _VERIFY_ERMAKOV, interval=[0.0, 2000.0], outputs={"reprot": "out/r.json"}
    ),
    "verify-symmetry": dict(_MISSPELLED["verify-symmetry"], outputs={"reprot": "out/r.json"}),
    "verify-symmetry-csv": dict(_MISSPELLED["verify-symmetry"], outputs={"csv": "out/o.csv"}),
    "audit-all": {"kind": "audit-all", "outputs": {"ledger": "out/l.json", "report": "out/r.json"}},
}


@pytest.fixture
def work_calls(monkeypatch):
    """Names of the calls to integrate, symmetry_residual and audit_all, in order."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    # the work of every kind, through each module's own reference to it
    originals = {
        "integrate": epwb.ode.integrate,
        "symmetry_residual": epwb.symmetry.symmetry_residual,
        "audit_all": epwb.audit.audit_all,
    }
    for module in [m for name, m in sys.modules.items() if name.startswith("epwb.")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(fn))
    return calls


@pytest.mark.parametrize("case", sorted(_NOT_WRITTEN))
def test_an_output_key_the_kind_does_not_write_is_refused_before_it_runs(
    tmp_path, capsys, work_calls, case
):
    (tmp_path / "out").mkdir()
    assert run_cli(["run", str(write_scenario(tmp_path, _NOT_WRITTEN[case]))]) == 1
    assert capsys.readouterr().err.startswith("epwb: configuration error: unknown outputs keys")
    assert os.listdir(tmp_path / "out") == []
    assert work_calls == []


# per case, a scenario whose outputs name one file twice, or name the scenario file
_COLLIDING = {
    "csv-is-report": simulate_scenario(outputs={"csv": "x.txt", "report": "x.txt"}),
    "csv-is-report-resolved": simulate_scenario(outputs={"csv": "x.txt", "report": "./x.txt"}),
    "report-is-scenario": simulate_scenario(outputs={"csv": "o.csv", "report": "scenario.json"}),
    "ledger-is-scenario": {"kind": "audit-all", "outputs": {"ledger": "./scenario.json"}},
}


@pytest.mark.parametrize("case", sorted(_COLLIDING))
def test_colliding_output_paths_are_refused_before_it_runs(tmp_path, capsys, work_calls, case):
    path = write_scenario(tmp_path, _COLLIDING[case])
    scenario = path.read_bytes()
    assert run_cli(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("epwb: configuration error: outputs ") and "are one file" in err
    assert os.listdir(tmp_path) == ["scenario.json"]
    assert path.read_bytes() == scenario
    assert work_calls == []


def test_an_output_in_a_missing_directory_is_refused_before_it_runs(tmp_path, capsys, work_calls):
    # the table comes first, so a report that failed only when opened would leave the table
    outputs = {"csv": "t.csv", "report": "no/r.json"}
    path = write_scenario(tmp_path, simulate_scenario(outputs=outputs))
    assert run_cli(["run", str(path)]) == 1
    assert run_cli(["audit-all", "--out", str(tmp_path / "no" / "ledger.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    refused = f"epwb: configuration error: output directory does not exist: {tmp_path / 'no'}"
    assert err == [refused] * 2
    assert os.listdir(tmp_path) == ["scenario.json"]
    assert work_calls == []


@pytest.mark.parametrize(
    "outputs", [{"csv": "t.csv", "report": "r.json"}, {"csv": "t.csv"}], ids=["report", "no-report"]
)
def test_a_refused_report_leaves_no_file(tmp_path, capsys, monkeypatch, outputs):
    # every output is rendered before any is written, and a report is rendered
    # even when no file is named for it
    run, reads, writes = epwb.cli._KINDS["simulate"]

    def nan_report(sc, **shared):
        report, table = run(sc, **shared)
        return dict(report, final_state=[math.nan, 0.0]), table

    monkeypatch.setitem(epwb.cli._KINDS, "simulate", (nan_report, reads, writes))
    path = write_scenario(tmp_path, simulate_scenario(outputs=outputs))
    assert run_cli(["run", str(path)]) == 1
    assert "not JSON compliant" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["scenario.json"]


# per case, a scenario and the one key its kind does not read: a misspelling per
# kind (ignored, sigme would check the accepted sigma = 1/4 chart and treshold
# the default threshold, so both runs would pass), then the keys that once set
# sample sizes and the Abel bound, now constants, then per invariant a key only
# another invariant reads (ermakov reads them all)
_SYMMETRY = _MISSPELLED["verify-symmetry"]
_LORENTZ = {
    "kind": "verify-invariant",
    "invariant": "lorentz",
    "phi": "4",
    "initial": [1.0, 0.0],
    "interval": [0.0, 20.0],
}
_UNKNOWN = {
    "simulate": (dict(simulate_scenario(), intial=[2.0, 0.0]), "intial"),
    "verify-invariant": (dict(_VERIFY_ERMAKOV, treshold=1e-30), "treshold"),
    "verify-symmetry": (dict(_SYMMETRY, phii="2"), "phii"),
    "reduce": (dict(_TABLES["reduce"], sigme=0.75), "sigme"),
    "eliezer-grey": (dict(_TABLES["eliezer-grey"], setings={"rtol": 1e-3}), "setings"),
    "audit-all": ({"kind": "audit-all", "ledger": "out/l.json"}, "ledger"),
    "samples": (dict(_VERIFY_ERMAKOV, samples=2.9), "samples"),
    "symmetry-n": (dict(_SYMMETRY, n=10**12), "n"),
    "x_range": (dict(_SYMMETRY, x_range=[0.5, 2.0]), "x_range"),
    "v_range": (dict(_SYMMETRY, v_range=[-1.0, 1.0]), "v_range"),
    "reduce-n": (dict(_TABLES["reduce"], n=400), "n"),
    "abel_threshold": (dict(_TABLES["reduce"], abel_threshold=1e-5), "abel_threshold"),
    "lewis-h2": (dict(_VERIFY_ERMAKOV, invariant="lewis"), "h2"),
    "lorentz-h2": (dict(_LORENTZ, h2=2.25), "h2"),
    "lorentz-aux_initial": (dict(_LORENTZ, aux_initial=[1.0, 0.0]), "aux_initial"),
}


@pytest.mark.parametrize("case", list(_UNKNOWN))
def test_an_unknown_scenario_key_is_refused_before_it_runs(tmp_path, capsys, work_calls, case):
    scenario, key = _UNKNOWN[case]
    outputs = {"ledger": "out/l.json"} if case == "audit-all" else {"report": "out/r.json"}
    (tmp_path / "out").mkdir()
    path = write_scenario(tmp_path, dict(scenario, outputs=outputs))
    assert run_cli(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"epwb: configuration error: unknown scenario keys [{key!r}]")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path / "out") == []
    assert work_calls == []


_REPORTS = {
    **_TABLES,
    "verify-invariant": _LORENTZ,
    "verify-symmetry": _SYMMETRY,
}


@pytest.mark.parametrize("kind", sorted(_REPORTS))
def test_every_report_names_its_kind_and_verdict(tmp_path, kind):
    path = write_scenario(tmp_path, dict(_REPORTS[kind], outputs={"report": "r.json"}))
    assert run_cli(["run", str(path)]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["kind"] == kind
    assert report["pass"] is True
    reads_threshold = "threshold" in epwb.cli._KINDS[kind][1]
    assert ("threshold" in report) == reads_threshold == (kind != "simulate")
    if reads_threshold:
        assert report["threshold"] == 1e-6


@pytest.mark.parametrize("interval", [[-1e308, 1e308], [1.0, 0.0]], ids=["wide", "reversed"])
@pytest.mark.parametrize("kind", sorted(_REPORTS))
def test_an_unusable_interval_is_refused_before_it_runs(tmp_path, capsys, work_calls, kind, interval):
    # both ends of [-1e308, 1e308] are finite, but its width overflows to infinity
    outputs = {key: f"o.{key}" for key in epwb.cli._KINDS[kind][2]}
    path = write_scenario(tmp_path, dict(_REPORTS[kind], interval=interval, outputs=outputs))
    assert run_cli(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("epwb: configuration error: interval must be finite")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["scenario.json"]
    assert work_calls == []


class TestAuditLedger:
    def test_subcommand_writes_file(self, tmp_path):
        out = tmp_path / "ledger.json"
        assert run_cli(["audit-all", "--out", str(out)]) == 0
        ledger = json.loads(out.read_text())
        assert ledger["all_resolved"] is True
        ids = [e["id"] for e in ledger["entries"]]
        assert ids == [
            "wronskian-exponent",
            "product-base-coefficient",
            "bracket-gamma23",
            "chart-time-scale",
            "abel-powers",
        ]
        assert all(e["verdict"] == "reading_b" for e in ledger["entries"])

    def test_subcommand_stdout(self, capsys):
        assert run_cli(["audit-all"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["all_resolved"] is True

    def test_scenario_kind_matches_subcommand(self, tmp_path):
        out = tmp_path / "a.json"
        assert run_cli(["audit-all", "--out", str(out)]) == 0
        sc = {"kind": "audit-all", "outputs": {"ledger": "b.json"}}
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        assert out.read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_a_non_finite_ledger_is_refused_like_a_report(self, tmp_path, capsys, monkeypatch):
        entry = {"id": "demo", "reading_b": {"residual": math.nan}, "resolved": True}
        ledger = {"entries": [entry], "all_resolved": True}
        monkeypatch.setattr(epwb.cli, "audit_all", lambda: ledger)
        out = tmp_path / "ledger.json"
        assert run_cli(["audit-all", "--out", str(out)]) == 1
        assert "not JSON compliant" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["audit-all"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("out", [None, "ledger.json"], ids=["stdout", "out"])
    def test_an_unresolved_ledger_fails_with_one_line(self, tmp_path, capsys, monkeypatch, out):
        entry = {"id": "demo", "verdict": "unresolved", "resolved": False}
        ledger = {"entries": [entry], "all_resolved": False}
        monkeypatch.setattr(epwb.cli, "audit_all", lambda: ledger)
        argv = ["audit-all"] if out is None else ["audit-all", "--out", str(tmp_path / out)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("epwb: check failed: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        emitted = captured.out if out is None else (tmp_path / out).read_text()
        assert json.loads(emitted) == ledger
        assert captured.out == ("" if out else emitted)

    def test_ledger_is_the_only_outputs_key(self, tmp_path, capsys):
        sc = {"kind": "audit-all", "outputs": {"ledger": "a.json", "report": "b.json"}}
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 1
        assert "unknown outputs keys ['report']" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["scenario.json"]


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["run", str(tmp_path / "nope.json")]) == 1
        assert "cannot read scenario" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["run", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_scenario(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run_cli(["run", str(path)]) == 1

    def test_unknown_kind(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"kind": "frobnicate"})
        assert run_cli(["run", str(path)]) == 1
        assert "unknown kind" in capsys.readouterr().err

    def test_a_kind_that_is_not_a_string_is_refused(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"kind": ["simulate"]})
        assert run_cli(["run", str(path)]) == 1
        assert "configuration error: unknown kind ['simulate']" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        sc = simulate_scenario()
        del sc["initial"]
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 1
        assert "initial" in capsys.readouterr().err

    def test_reversed_interval(self, tmp_path):
        path = write_scenario(tmp_path, simulate_scenario(interval=[5.0, 0.0]))
        assert run_cli(["run", str(path)]) == 1

    @pytest.mark.parametrize(
        "scenario",
        [
            simulate_scenario(settings={"max_steps": 0}),
            {
                "kind": "verify-symmetry",
                "g": "(1+t)^4",
                "c0": 1.0,
                "m": 1.0,
                "interval": [0.0, 3.0],
                "threshold": 1e400,
            },
            simulate_scenario(interval=[0.0, 1e400]),
            simulate_scenario(settings={"max_steps": 2.5}),
            simulate_scenario(settings={"rtol": 1e400}),
        ],
        ids=["zero-max-steps", "infinite-threshold", "infinite-interval", "fractional-max-steps",
             "infinite-rtol"],
    )
    def test_vacuous_or_non_finite_input_is_a_configuration_error(self, tmp_path, scenario):
        path = write_scenario(tmp_path, scenario)
        assert run_cli(["run", str(path)]) == 1
        assert not (tmp_path / "report.json").exists()

    def test_overflowing_invariant_is_a_run_failure(self, tmp_path, capsys):
        # x0 = 1e300 puts x^3 out of float range, so g/x^3 is undefined at the start
        scenario = {
            "kind": "verify-invariant",
            "invariant": "ermakov",
            "phi": "1",
            "initial": [1e300, 1e300],
            "interval": [0.0, 1.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, scenario)
        assert run_cli(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "integration stopped: step-failure" in err
        assert "overflow in '^' of 1e+300 and 3.0" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "invariant, message",
        [
            ("lewis", "Ermakov invariant is not finite at t=0.0"),
            ("lorentz", "non-finite series (spread nan, mean inf)"),
        ],
        ids=["lewis", "lorentz"],
    )
    def test_overflowing_oscillator_invariant_is_a_run_failure(
        self, tmp_path, capsys, invariant, message
    ):
        # q = 1e200 squares beyond float range, so the series is not finite
        scenario = {
            "kind": "verify-invariant",
            "invariant": invariant,
            "phi": "1",
            "initial": [1e200, 1e200],
            "interval": [0.0, 1.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, scenario)
        assert run_cli(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"epwb: run failed: {message}\n"
        assert not (tmp_path / "report.json").exists()

    def test_expression_error_reports_offset(self, tmp_path, capsys):
        path = write_scenario(tmp_path, simulate_scenario(phi="sin("))
        assert run_cli(["run", str(path)]) == 1
        assert "byte offset" in capsys.readouterr().err

    def test_unknown_settings_key(self, tmp_path):
        path = write_scenario(tmp_path, simulate_scenario(settings={"speed": 9}))
        assert run_cli(["run", str(path)]) == 1

    def test_no_arguments_is_usage_error(self):
        assert run_cli([]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli(["fly"]) == 1


class TestPrintGrammar:
    def test_prints_the_grammar(self, capsys):
        assert run_cli(["print-grammar"]) == 0
        out = capsys.readouterr().out
        assert "expression grammar" in out
        assert "expr" in out
        assert "size of its text, not by its depth" in out


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # the parser is built once per process, so each call must find it as the last one left it
    assert run_cli(["run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "epwb run: error: the following arguments are required: scenario" in captured.err
    path = write_scenario(tmp_path, simulate_scenario())
    assert run_cli(["run", str(path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["pass"] is True
    assert capsys.readouterr().err == ""
    assert run_cli(["print-grammar"]) == 0
    captured = capsys.readouterr()
    assert captured.out == epwb.cli.GRAMMAR_HELP and captured.err == ""


def _reject_constant(name):
    raise ValueError(f"report holds non-standard JSON {name}")


# numbers and counts that may be zero, fractional, huge or non-finite
_odd = st.sampled_from([0, -1.0, 2.5, 1e-300, 1e300, 10**12, 10**400, math.inf, -math.inf, math.nan])


def _mostly(sane):
    """A sane value, otherwise an odd one.

    Hypothesis does not draw ``integers(0, 9)`` uniformly: over the scenarios
    of the fuzz test below it took the odd branch in 13-19% of the draws
    (100 and 300 examples at seeds 0, 1 and 2), not in one draw in ten.
    """
    return st.integers(0, 9).flatmap(lambda i: _odd if i == 0 else sane)


def _pair(lo, hi):
    return st.lists(_mostly(st.floats(lo, hi)), min_size=2, max_size=2)


def _short_interval(t0, dt):
    if isinstance(t0, float) and isinstance(dt, float):
        return [t0, t0 + dt]
    return [t0, dt]  # an odd integer cannot always be added to a float


_interval = st.builds(_short_interval, _mostly(st.floats(-3.0, 3.0)), _mostly(st.floats(0.1, 1.5)))
_settings = st.fixed_dictionaries(
    {},
    optional={
        "rtol": _mostly(st.floats(1e-12, 1e-3)),
        "atol": _mostly(st.floats(1e-14, 1e-3)),
        "x_min": _mostly(st.floats(0.0, 0.5)),
        "max_steps": _mostly(st.integers(1, 50)),
    },
)
_phi = st.sampled_from(["1", "0", "4", "1+0.5*sin(t)", "-1"])
_compatible_g = st.sampled_from(["(1+t)^4", "exp(t)", "(2+t)^3"])
_simulate = st.fixed_dictionaries(
    {
        "kind": st.just("simulate"),
        "phi": _phi,
        "g": st.sampled_from(["1", "0", "-1", "2+t"]),
        "interval": _interval,
        "initial": _pair(-0.5, 2.0),
        "settings": _settings,
    }
)
_symmetry = st.fixed_dictionaries(
    {
        "kind": st.just("verify-symmetry"),
        "g": _compatible_g,
        "c0": _mostly(st.floats(-2.0, 2.0)),
        "m": _mostly(st.floats(-2.0, 2.0)),
        "interval": _interval,
        "threshold": _mostly(st.floats(1e-12, 1.0)),
    }
)
_reduce = st.fixed_dictionaries(
    {
        "kind": st.just("reduce"),
        "g": _compatible_g,
        "c0": _mostly(st.floats(0.1, 2.0)),
        "m": _mostly(st.floats(0.0, 2.0)),
        "interval": _interval,
        "initial": _pair(0.3, 2.0),
        "settings": _settings,
    },
    optional={
        "sigma": _mostly(st.floats(-1.0, 1.0)),
        "threshold": _mostly(st.floats(1e-12, 1.0)),
    },
)
_eliezer_grey = st.fixed_dictionaries(
    {
        "kind": st.just("eliezer-grey"),
        "phi": _phi,
        "k": st.sampled_from(["0", "0.1", "-0.2", "t"]),
        "initial": st.fixed_dictionaries(
            {"r": _mostly(st.floats(-0.5, 2.0)), "thetadot": _mostly(st.floats(-1.0, 1.0))},
            optional={
                "rdot": _mostly(st.floats(-0.5, 2.0)),
                "theta": _mostly(st.floats(-0.5, 2.0)),
            },
        ),
        "interval": _interval,
        "settings": _settings,
    },
    optional={"threshold": _mostly(st.floats(1e-12, 1.0))},
)


def _invariant_run(name, optional):
    """A verify-invariant scenario of ``name``, with the optional keys that invariant reads."""
    return st.fixed_dictionaries(
        {
            "kind": st.just("verify-invariant"),
            "invariant": st.just(name),
            "phi": _phi,
            "initial": _pair(-0.5, 2.0),
            "interval": _interval,
            "settings": _settings,
        },
        optional={**optional, "threshold": _mostly(st.floats(1e-12, 1.0))},
    )


_aux_initial = {"aux_initial": _pair(-0.5, 2.0)}
_invariant = st.one_of(
    _invariant_run("ermakov", {**_aux_initial, "h2": _mostly(st.floats(-1.0, 3.0))}),
    _invariant_run("lewis", _aux_initial),
    _invariant_run("lorentz", {}),
)
# a misspelled key per kind: a run given one must exit 1 and write nothing
_TYPOS = {
    "simulate": "intial",
    "verify-symmetry": "treshold",
    "reduce": "sigme",
    "eliezer-grey": "phii",
    "verify-invariant": "h_2",
}
_drawn = st.tuples(
    st.one_of(_simulate, _symmetry, _reduce, _eliezer_grey, _invariant),
    st.integers(0, 9),
    _mostly(st.floats(0.0, 1.0)),
)
# a drawn scenario, when the integer is 0 with its kind's misspelled key added
_scenarios = _drawn.map(lambda d: {**d[0], _TYPOS[d[0]["kind"]]: d[2]} if d[1] == 0 else d[0])


def _evidence(kind: str, report: dict, tmp: str) -> int:
    """Number of steps or samples a report rests on."""
    if kind == "reduce":
        return report["abel_samples_used"]
    if kind == "eliezer-grey":  # its report names no count; its table has one row per node
        with open(os.path.join(tmp, "table.csv")) as fh:
            return len(fh.read().splitlines()) - 2
    return report.get("steps", report.get("samples"))


@settings(max_examples=100, deadline=None)
@given(scenario=_scenarios)
@example(  # sigma = 0 makes T = sigma log G constant: refused, never divided by
    scenario={
        "kind": "reduce",
        "g": "(1+t)^4",
        "c0": 1.0,
        "m": 1.0,
        "interval": [0.0, 1.0],
        "initial": [1.0, 0.0],
        "settings": {},
        "sigma": 0,
    }
)
@example(  # both ends are finite, but the width t1 - t0 overflows
    scenario={
        "kind": "verify-symmetry",
        "g": "(1+t)^4",
        "c0": 1.0,
        "m": 1.0,
        "interval": [-1e308, 1e308],
    }
)
def test_fuzzed_scenarios_never_pass_vacuously(scenario):
    scenario["outputs"] = {"report": "report.json"}
    if scenario["kind"] == "eliezer-grey":
        scenario["outputs"]["csv"] = "table.csv"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        code = run_cli(["run", path])
        assert code in (0, 1, 2)
        report_path = os.path.join(tmp, "report.json")
        if _TYPOS[scenario["kind"]] in scenario:
            assert code == 1 and os.listdir(tmp) == ["scenario.json"]
        if code == 0:
            assert os.path.exists(report_path)
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.loads(fh.read(), parse_constant=_reject_constant)
            if code == 0:
                assert report["pass"] is True
                assert _evidence(scenario["kind"], report, tmp) >= 1


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")


def test_shipped_scenarios_pass_in_a_fresh_interpreter(tmp_path):
    # NumPy imports some modules lazily, through the builtins of its caller's
    # frame; only an interpreter that has run nothing else shows code that
    # calls NumPy without them failing there
    names = sorted(os.path.basename(p) for p in glob.glob(os.path.join(SCENARIOS, "*.json")))
    assert len(names) == 6
    for name in names:
        shutil.copy(os.path.join(SCENARIOS, name), tmp_path)
    (tmp_path / "out").mkdir()
    code = (
        "import json, sys\n"
        "from epwb.cli import main\n"
        "def run(name):\n"
        "    try:\n"
        "        return main(['run', name])\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "print(json.dumps({name: run(name) for name in sys.argv[1:]}))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(epwb.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code, *names], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {name: 0 for name in names}, done.stderr
