import glob
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import epwb
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
        sc = simulate_scenario(
            outputs={"csv": "a.csv", "dat": "b.dat", "report": "c.json"}
        )
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        for name in ("a.csv", "b.dat", "c.json"):
            assert (tmp_path / name).exists()
        assert (tmp_path / "b.dat").read_text().startswith("# t x xdot\n")

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

    def test_env_tolerance_flips_the_verdict(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, self.lorentz_scenario())
        monkeypatch.setenv("EPWB_TOL", "1e-20")
        assert run_cli(["run", str(path)]) == 2

    def test_scenario_threshold_beats_env(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, self.lorentz_scenario(threshold=1.0))
        monkeypatch.setenv("EPWB_TOL", "1e-20")
        assert run_cli(["run", str(path)]) == 0

    @pytest.mark.parametrize("bad", ("abc", "-1", "0", "nan"))
    def test_garbage_env_tolerance(self, tmp_path, monkeypatch, bad):
        path = write_scenario(tmp_path, self.lorentz_scenario())
        monkeypatch.setenv("EPWB_TOL", bad)
        assert run_cli(["run", str(path)]) == 1

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
            "initial": [1.0, 0.0, 0.0, 1.0],
            "interval": [0.0, 10.0],
            "outputs": {"report": "report.json"},
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["chart_qualified"] is True

    def test_bad_initial_radius(self, tmp_path):
        sc = {
            "kind": "eliezer-grey",
            "phi": "1",
            "initial": {"r": -1.0, "thetadot": 1.0},
            "interval": [0.0, 1.0],
        }
        path = write_scenario(tmp_path, sc)
        assert run_cli(["run", str(path)]) == 1


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
            {
                "kind": "verify-symmetry",
                "g": "(1+t)^4",
                "c0": 1.0,
                "m": 1.0,
                "interval": [0.0, 3.0],
                "n": 0,
            },
            {
                "kind": "verify-symmetry",
                "g": "(1+t)^4",
                "c0": 1.0,
                "m": 1.0,
                "interval": [0.0, 3.0],
                "threshold": 1e400,
            },
            simulate_scenario(interval=[0.0, 1e400]),
            {
                "kind": "verify-invariant",
                "invariant": "lorentz",
                "phi": "4",
                "initial": [1.0, 0.0],
                "interval": [0.0, 10.0],
                "samples": 2.9,
            },
            simulate_scenario(settings={"max_steps": 2.5}),
            simulate_scenario(settings={"rtol": 1e400}),
            {
                "kind": "verify-symmetry",
                "g": "(1+t)^4",
                "c0": 1.0,
                "m": 1.0,
                "interval": [0.0, 3.0],
                "n": 10**12,
            },
        ],
        ids=["zero-samples", "infinite-threshold", "infinite-interval", "fractional-count",
             "fractional-max-steps", "infinite-rtol", "huge-lattice"],
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


def _reject_constant(name):
    raise ValueError(f"report holds non-standard JSON {name}")


# numbers and counts that may be zero, fractional, huge or non-finite
_odd = st.sampled_from([0, -1.0, 2.5, 1e-300, 1e300, 10**12, 10**400, math.inf, -math.inf, math.nan])


def _mostly(sane):
    """A sane value nine times in ten, otherwise an odd one."""
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
        "x_range": _pair(0.1, 3.0),
        "n": _mostly(st.integers(0, 6)),
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
        "n": _mostly(st.integers(0, 50)),
        "threshold": _mostly(st.floats(1e-12, 1.0)),
        "abel_threshold": _mostly(st.floats(1e-12, 1.0)),
    },
)
_eliezer_grey = st.fixed_dictionaries(
    {
        "kind": st.just("eliezer-grey"),
        "phi": _phi,
        "k": st.sampled_from(["0", "0.1", "-0.2", "t"]),
        "initial": st.one_of(
            st.lists(_mostly(st.floats(-0.5, 2.0)), min_size=4, max_size=4),
            st.fixed_dictionaries(
                {"r": _mostly(st.floats(-0.5, 2.0)), "thetadot": _mostly(st.floats(-1.0, 1.0))}
            ),
        ),
        "interval": _interval,
        "settings": _settings,
    },
    optional={"threshold": _mostly(st.floats(1e-12, 1.0))},
)
_invariant = st.fixed_dictionaries(
    {
        "kind": st.just("verify-invariant"),
        "invariant": st.sampled_from(["ermakov", "lewis", "lorentz"]),
        "phi": _phi,
        "initial": _pair(-0.5, 2.0),
        "interval": _interval,
        "settings": _settings,
    },
    optional={
        "aux_initial": _pair(-0.5, 2.0),
        "h2": _mostly(st.floats(-1.0, 3.0)),
        "samples": _mostly(st.integers(0, 50)),
        "threshold": _mostly(st.floats(1e-12, 1.0)),
    },
)


def _evidence(kind: str, report: dict, tmp: str) -> int:
    """Number of steps or samples a report rests on."""
    if kind == "reduce":
        return report["abel_samples_used"]
    if kind == "eliezer-grey":  # its report names no count; its table has one row per node
        with open(os.path.join(tmp, "table.csv")) as fh:
            return len(fh.read().splitlines()) - 2
    return report.get("steps", report.get("samples"))


@settings(max_examples=100, deadline=None)
@given(scenario=st.one_of(_simulate, _symmetry, _reduce, _eliezer_grey, _invariant))
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
