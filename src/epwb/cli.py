"""Batch front end: run scenario files, emit traces, reports, and the ledger.

Usage:
    epwb run <scenario.json>
    epwb audit-all [--out ledger.json]
    epwb print-grammar

A scenario is one JSON object with a "kind" selecting the pipeline:

    simulate          integrate x'' + phi x = g/x^3, dump t,x,xdot
    verify-invariant  drift audit for ermakov / lewis / lorentz
    verify-symmetry   linearized-condition residual for tau, xi
    reduce            compatible family -> canonical chart -> residuals
    eliezer-grey      polar run, angular momentum + radial identity
    audit-all         write the corrections ledger

Expression-valued fields use the grammar shown by print-grammar.  Output
paths are resolved relative to the scenario file.  Exit codes: 0 all checks
passed, 2 a residual exceeded its threshold (or a run failed mid-flight),
1 configuration or parse errors.  The default residual threshold is 1e-6;
the EPWB_TOL environment variable overrides the default, an explicit
"threshold" key in the scenario overrides both.  Every number in a
scenario must be finite, and counts ("samples", "n") must be integers at
or above their minimum that ask for at most a million samples (so
verify-symmetry's n^3 lattice takes n <= 100); anything else is a
configuration error (exit 1), never a vacuous pass or an exhausted memory.
Outputs carry no timestamps and use fixed float formatting, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .audit import audit_all, ledger_json
from .central_field import (
    CentralFieldConfig,
    PolarState,
    angular_momentum_check,
    chart_qualified,
    k_integral,
    radial_ep_residual,
    simulate_polar,
)
from .expressions import (
    GRAMMAR_HELP,
    Const,
    DomainError,
    ExprSyntaxError,
    TimeFunction,
    fail_first,
    time_function,
)
from .ode import COMPLETED, IntegrationSettings, integrate, write_table
from .oscillator import DegenerateBasisError, oscillator_system
from .pinney import (
    EPConfig,
    LewisState,
    ep_system,
    ermakov_invariant,
    invariant_audit,
    lewis_invariant,
    lorentz_adiabatic,
)
from .reduction import abel_residual, autonomous_residual, canonical_chart, transform_trajectory
from .symmetry import (
    SecondOrderODE,
    compatible_family,
    default_samples,
    ep_ode,
    point_symmetry,
    surviving_symmetry,
    symmetry_residual,
)

_DEFAULT_TOL = 1e-6
_MAX_SAMPLES = 1_000_000  # largest sample set a scenario may ask for


class ScenarioError(ValueError):
    """Configuration problem: missing key, bad type, unusable value."""


def _tol_default() -> float:
    raw = os.environ.get("EPWB_TOL")
    if raw is None:
        return _DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"EPWB_TOL is not a decimal float: {raw!r}")
    if not math.isfinite(value) or value <= 0.0:
        raise ScenarioError(f"EPWB_TOL must be a positive finite float, got {raw!r}")
    return value


def _require(sc: dict, key: str):
    if key not in sc:
        raise ScenarioError(f"scenario is missing required key {key!r}")
    return sc[key]


def _finite(key: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{key!r} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{key!r} must be finite, got {value!r}")
    return value


def _number(sc: dict, key: str, default=None) -> float:
    value = sc.get(key, default)
    if value is None:
        raise ScenarioError(f"scenario is missing required key {key!r}")
    return _finite(key, value)


def _count(sc: dict, key: str, default: int, minimum: int, maximum: float = math.inf) -> int:
    value = sc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or not minimum <= value <= maximum:
        bounds = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ScenarioError(f"{key!r} must be an integer {bounds}, got {value!r}")
    return value


def _interval(sc: dict) -> tuple[float, float]:
    t0, t1 = _pair(sc, "interval")
    if not (t0 < t1):
        raise ScenarioError(f"'interval' must satisfy t0 < t1, got {[t0, t1]!r}")
    return t0, t1


def _settings(sc: dict) -> IntegrationSettings:
    raw = sc.get("settings", {})
    if not isinstance(raw, dict):
        raise ScenarioError(f"'settings' must be an object, got {raw!r}")
    allowed = {"rtol", "atol", "max_steps", "x_min"}
    unknown = set(raw) - allowed
    if unknown:
        raise ScenarioError(f"unknown settings keys {sorted(unknown)!r}")
    checked = {
        k: _count(raw, k, 1, 1) if k == "max_steps" else _finite(k, v) for k, v in raw.items()
    }
    try:
        return IntegrationSettings(**checked)
    except ValueError as exc:
        raise ScenarioError(f"bad settings: {exc}")


def _text(sc: dict, key: str, default: str | None = None) -> str:
    text = sc.get(key, default) if default is not None else _require(sc, key)
    if not isinstance(text, str):
        raise ScenarioError(f"{key!r} must be an expression string, got {text!r}")
    return text


def _tf(sc: dict, key: str, default: str | None = None) -> TimeFunction:
    return time_function(_text(sc, key, default))


def _pair(sc: dict, key: str, default=None) -> tuple[float, float]:
    raw = sc.get(key, default)
    if raw is None:
        raise ScenarioError(f"scenario is missing required key {key!r}")
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ScenarioError(f"{key!r} must be a pair of numbers, got {raw!r}")
    return _finite(key, raw[0]), _finite(key, raw[1])


def _outputs(sc: dict) -> dict:
    raw = sc.get("outputs", {})
    if not isinstance(raw, dict):
        raise ScenarioError(f"'outputs' must be an object, got {raw!r}")
    return raw


def _out_path(base_dir: str, rel: str) -> str:
    if not isinstance(rel, str) or not rel:
        raise ScenarioError(f"output path must be a nonempty string, got {rel!r}")
    return rel if os.path.isabs(rel) else os.path.join(base_dir, rel)


def _write_report(path: str, payload: dict) -> None:
    # serialised before the file is opened, so a refused number leaves no empty report
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _emit(outputs: dict, base_dir: str, report: dict, table=None) -> None:
    for key, sep, prefix in (("csv", ",", ""), ("dat", " ", "# ")):
        if key in outputs:
            if table is None:
                raise ScenarioError(f"this kind produces no {key} output")
            names, columns = table
            write_table(_out_path(base_dir, outputs[key]), prefix + sep.join(names), columns, sep)
    if "report" in outputs:
        _write_report(_out_path(base_dir, outputs["report"]), report)


def _verdict(report: dict, outputs: dict, base_dir: str, table=None) -> int:
    """Write the outputs the scenario asks for; ``table`` is (column names, columns) or None."""
    _emit(outputs, base_dir, report, table)
    if not report.get("pass", False):
        sys.stderr.write(f"epwb: check failed: {json.dumps(report, sort_keys=True)}\n")
        return 2
    return 0


def _run_simulate(sc: dict, base_dir: str) -> int:
    cfg = EPConfig(phi=_tf(sc, "phi"), g=_tf(sc, "g"))
    settings = _settings(sc)
    interval = _interval(sc)
    initial = _pair(sc, "initial")
    traj = integrate(ep_system(cfg, settings), initial, interval, settings)
    report = {
        "kind": "simulate",
        "status": traj.status,
        "message": traj.message,
        "interval": [traj.t0, traj.t_end],
        "steps": len(traj.times) - 1,
        "final_state": [float(v) for v in traj.states[-1]],
        "pass": traj.status == COMPLETED,
    }
    table = (("t", "x", "xdot"), (traj.times, *traj.states.T))
    return _verdict(report, _outputs(sc), base_dir, table)


def _completed(*trajectories) -> None:
    for tr in trajectories:
        if tr.status != COMPLETED:
            raise DomainError(f"integration stopped: {tr.status} ({tr.message})")


def _invariant_series(sc: dict, interval, settings):
    name = _require(sc, "invariant")
    phi = _tf(sc, "phi")
    n = _count(sc, "samples", 200, 2, _MAX_SAMPLES)

    if name == "ermakov":
        h2 = _number(sc, "h2", 1.0)
        x0 = _pair(sc, "initial")
        y0 = _pair(sc, "aux_initial", (1.0, 0.0))
        cfg = EPConfig(phi=phi, g=TimeFunction(Const(h2)))
        xt = integrate(ep_system(cfg, settings), x0, interval, settings)
        yt = integrate(oscillator_system(phi), y0, interval, settings)
        _completed(xt, yt)
        grid = xt.grid(n)
        return name, ermakov_invariant(xt, yt, h2, grid)

    if name == "lewis":
        q0 = _pair(sc, "initial")
        rho0 = _pair(sc, "aux_initial", (1.0, 0.0))
        qt = integrate(oscillator_system(phi), q0, interval, settings)
        rt = integrate(ep_system(EPConfig(phi=phi, g=TimeFunction(Const(1.0))), settings), rho0, interval, settings)
        _completed(qt, rt)
        grid = qt.grid(n)
        q, p = qt.sample(grid).T
        rho, rho_dot = rt.sample(grid).T
        return name, lewis_invariant(LewisState(q, p, rho, rho_dot))

    if name == "lorentz":
        q0 = _pair(sc, "initial")
        qt = integrate(oscillator_system(phi), q0, interval, settings)
        _completed(qt)
        grid = qt.grid(n)
        w2 = phi.jet(grid, 0)[0]
        fail_first(w2 <= 0.0, "frequency squared {!r} not positive at t={!r}", w2, grid)
        q, p = qt.sample(grid).T
        return name, lorentz_adiabatic(np.sqrt(w2), q, p)

    raise ScenarioError(f"unknown invariant {name!r} (want ermakov, lewis or lorentz)")


def _run_verify_invariant(sc: dict, base_dir: str) -> int:
    interval = _interval(sc)
    settings = _settings(sc)
    threshold = _number(sc, "threshold", _tol_default())
    name, values = _invariant_series(sc, interval, settings)
    report = invariant_audit(name, interval, values)
    report["kind"] = "verify-invariant"
    report["threshold"] = threshold
    report["pass"] = bool(report["drift"] <= threshold)
    return _verdict(report, _outputs(sc), base_dir)


def _run_verify_symmetry(sc: dict, base_dir: str) -> int:
    interval = _interval(sc)
    threshold = _number(sc, "threshold", _tol_default())
    if "tau" in sc or "xi" in sc:
        sym = point_symmetry(_text(sc, "tau"), _text(sc, "xi"), "scenario")
        ode = SecondOrderODE.from_ep(_tf(sc, "phi"), _tf(sc, "g"))
    else:
        fam = compatible_family(_tf(sc, "g"), _number(sc, "c0"), _number(sc, "m"), interval)
        sym = surviving_symmetry(fam)
        ode = SecondOrderODE.from_ep(_tf(sc, "phi"), fam.g) if "phi" in sc else ep_ode(fam)
    samples = default_samples(
        interval,
        x_range=_pair(sc, "x_range", (0.5, 2.0)),
        v_range=_pair(sc, "v_range", (-1.0, 1.0)),
        n=_count(sc, "n", 5, 1, round(_MAX_SAMPLES ** (1 / 3))),  # an n^3 lattice
    )
    res = symmetry_residual(sym, ode, samples)
    report = {
        "kind": "verify-symmetry",
        "residual": float(res),
        "samples": len(samples),
        "threshold": threshold,
        "pass": bool(res <= threshold),
    }
    return _verdict(report, _outputs(sc), base_dir)


def _run_reduce(sc: dict, base_dir: str) -> int:
    interval = _interval(sc)
    settings = _settings(sc)
    threshold = _number(sc, "threshold", _tol_default())
    abel_threshold = _number(sc, "abel_threshold", 1e-5)
    fam = compatible_family(_tf(sc, "g"), _number(sc, "c0"), _number(sc, "m"), interval)
    chart = canonical_chart(fam, sigma=_number(sc, "sigma", 0.25))
    traj = integrate(
        ep_system(EPConfig(phi=fam.phi, g=fam.g), settings), _pair(sc, "initial"), interval, settings
    )
    _completed(traj)
    orbit = transform_trajectory(chart, traj, n=_count(sc, "n", 400, 2, _MAX_SAMPLES))
    res = autonomous_residual(orbit, fam.omega)
    abel = abel_residual(orbit, fam.omega)
    report = {
        "kind": "reduce",
        "omega": fam.omega,
        "sigma": chart.sigma,
        "autonomous_residual": float(res),
        "abel_residual": abel.residual,
        "abel_samples_used": abel.samples_used,
        "abel_samples_skipped": abel.samples_skipped,
        "threshold": threshold,
        "abel_threshold": abel_threshold,
        "pass": bool(res <= threshold and abel.residual <= abel_threshold),
    }
    table = (("T", "X", "V"), (orbit.T, orbit.X, orbit.V))
    return _verdict(report, _outputs(sc), base_dir, table)


def _run_eliezer_grey(sc: dict, base_dir: str) -> int:
    interval = _interval(sc)
    settings = _settings(sc)
    threshold = _number(sc, "threshold", _tol_default())
    cfg = CentralFieldConfig(phi=_tf(sc, "phi"), k=_tf(sc, "k", "0"))
    raw = _require(sc, "initial")
    if isinstance(raw, dict):
        init = PolarState(
            r=_number(raw, "r"),
            rdot=_number(raw, "rdot", 0.0),
            theta=_number(raw, "theta", 0.0),
            thetadot=_number(raw, "thetadot"),
        )
    elif isinstance(raw, (list, tuple)) and len(raw) == 4:
        init = PolarState(*(_finite("initial", v) for v in raw))
    else:
        raise ScenarioError(f"'initial' must be [r, rdot, theta, thetadot] or an object, got {raw!r}")
    if init.r <= 0.0:
        raise ScenarioError(f"initial radius must be positive, got {init.r!r}")
    traj = simulate_polar(cfg, init, interval, settings)
    _completed(traj)
    quad = k_integral(cfg, (traj.t0, traj.t_end), settings)
    am_drift = angular_momentum_check(traj, cfg, settings=settings, quad=quad)
    radial = radial_ep_residual(traj, cfg, settings=settings, quad=quad)
    report = {
        "kind": "eliezer-grey",
        "angular_momentum_drift": float(am_drift),
        "radial_residual": float(radial),
        "chart_qualified": chart_qualified(traj, cfg, settings=settings, quad=quad),
        "threshold": threshold,
        "pass": bool(am_drift <= threshold and radial <= threshold),
    }
    table = (("t", "r", "rdot", "theta", "L"), (traj.times, *traj.states.T))
    return _verdict(report, _outputs(sc), base_dir, table)


def _run_audit_all(sc: dict, base_dir: str) -> int:
    report = audit_all()
    text = ledger_json(report)
    outputs = _outputs(sc)
    target = outputs.get("ledger", outputs.get("report"))
    if target is not None:
        with open(_out_path(base_dir, target), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["all_resolved"] else 2


_KINDS = {
    "simulate": _run_simulate,
    "verify-invariant": _run_verify_invariant,
    "verify-symmetry": _run_verify_symmetry,
    "reduce": _run_reduce,
    "eliezer-grey": _run_eliezer_grey,
    "audit-all": _run_audit_all,
}


def _dispatch(sc: dict, base_dir: str) -> int:
    if not isinstance(sc, dict):
        raise ScenarioError("scenario file must contain one JSON object")
    kind = _require(sc, "kind")
    handler = _KINDS.get(kind)
    if handler is None:
        raise ScenarioError(f"unknown kind {kind!r} (want one of {sorted(_KINDS)})")
    return handler(sc, base_dir)


def _cmd_run(path: str) -> int:
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except OSError as exc:
        sys.stderr.write(f"epwb: cannot read scenario: {exc}\n")
        return 1
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"epwb: scenario is not valid JSON: {exc}\n")
        return 1
    return _guarded_dispatch(scenario, os.path.dirname(os.path.abspath(path)))


def _guarded_dispatch(scenario, base_dir: str) -> int:
    try:
        return _dispatch(scenario, base_dir)
    except ExprSyntaxError as exc:
        sys.stderr.write(f"epwb: expression error: {exc}\n")
        return 1
    except (ScenarioError, DegenerateBasisError, ValueError) as exc:
        if isinstance(exc, DomainError):
            sys.stderr.write(f"epwb: run failed: {exc}\n")
            return 2
        sys.stderr.write(f"epwb: configuration error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"epwb: cannot write output: {exc}\n")
        return 1


class _ArgumentParser(argparse.ArgumentParser):
    # exit 1 on usage errors; 2 is reserved for failed verifications
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="epwb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    audit_p = sub.add_parser("audit-all", help="emit the corrections ledger")
    audit_p.add_argument("--out", default=None, help="write the ledger here instead of stdout")
    sub.add_parser("print-grammar", help="show the expression grammar")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "print-grammar":
        sys.stdout.write(GRAMMAR_HELP)
        return 0
    if args.command == "audit-all":
        outputs = {} if args.out is None else {"ledger": args.out}
        return _guarded_dispatch({"kind": "audit-all", "outputs": outputs}, os.getcwd())
    return _cmd_run(args.scenario)


if __name__ == "__main__":
    raise SystemExit(main())
