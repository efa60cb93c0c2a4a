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

Expression-valued fields use the grammar shown by print-grammar.  Each
kind names the top-level keys it reads (see _KINDS; _INVARIANT_KEYS per
invariant) and the "outputs" keys it writes: "csv" and "report" for
simulate, reduce and eliezer-grey, "report" for the two verify kinds,
"ledger" for audit-all.  Any other key, top-level or in "outputs", is
refused before anything is integrated or written, and so are two outputs
that are one file, an output that is the scenario file and an output in
a directory that does not exist.  Output paths are resolved relative to
the scenario file.  The keys several kinds read (_SHARED) are parsed
once by _dispatch.  A runner returns its report (or the ledger, each
entry of which is one audit._QUESTIONS row plus one residual pair) and
its table; _dispatch renders every output (JSON sorted, indented, no NaN
or infinity) before it writes any, then writes them, or prints the
ledger to stdout when no path is named.  A failed verdict, a report's
"pass" or the ledger's "all_resolved", writes one "epwb: check failed"
line to stderr.  A table is CSV: one header line of column names, then
one row per sample, every value to 17 significant digits, so it reads
back exactly.  Exit codes: 0 all checks passed, 2 a residual exceeded
its threshold (or a run failed mid-flight), 1 configuration or parse
errors.  The residual threshold is the scenario's "threshold" key, else
1e-6; nothing outside the scenario file sets it, so a verdict depends
only on the file and the code.  Every number in a scenario must be
finite, and the one count, settings.max_steps, an integer >= 1; anything
else is a configuration error (exit 1), never a vacuous pass.
Outputs carry no timestamps and use fixed float formatting, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .audit import audit_all
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
from .ode import COMPLETED, IntegrationSettings, integrate
from .oscillator import oscillator_system
from .pinney import EPConfig, drift, ep_system, ermakov_invariant, lorentz_adiabatic
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
_ABEL_TOL = 1e-5  # bound on reduce's Abel-relation residual
_SERIES = 200  # points of an invariant series


class ScenarioError(ValueError):
    """Configuration problem: missing key, bad type, unusable value."""


def _require(sc: dict, key: str, default=None):
    """``sc[key]``, else ``default``; ScenarioError if the key is absent and has no default."""
    if key not in sc and default is None:
        raise ScenarioError(f"scenario is missing required key {key!r}")
    return sc.get(key, default)


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
    return _finite(key, _require(sc, key, default))


def _interval(sc: dict) -> tuple[float, float]:
    t0, t1 = _pair(sc, "interval")
    if not (t0 < t1):
        raise ScenarioError(f"'interval' must satisfy t0 < t1, got {[t0, t1]!r}")
    return t0, t1


def _keyed(raw, key: str, allowed: tuple[str, ...]) -> dict:
    """``raw`` as the value of ``key``: an object whose keys are all in ``allowed``."""
    if not isinstance(raw, dict):
        raise ScenarioError(
            f"{key!r} must be an object with keys among {list(allowed)}, got {raw!r}"
        )
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown {key} keys {sorted(unknown)!r} (want {sorted(allowed)})")
    return raw


def _settings(sc: dict) -> IntegrationSettings:
    raw = _keyed(sc.get("settings", {}), "settings", ("rtol", "atol", "max_steps", "x_min"))
    # max_steps goes in as given: IntegrationSettings refuses a bool, a non-integer and < 1
    checked = {k: v if k == "max_steps" else _finite(k, v) for k, v in raw.items()}
    try:
        return IntegrationSettings(**checked)
    except ValueError as exc:
        raise ScenarioError(f"bad settings: {exc}")


def _text(sc: dict, key: str, default: str | None = None) -> str:
    text = _require(sc, key, default)
    if not isinstance(text, str):
        raise ScenarioError(f"{key!r} must be an expression string, got {text!r}")
    return text


def _tf(sc: dict, key: str, default: str | None = None) -> TimeFunction:
    return time_function(_text(sc, key, default))


def _pair(sc: dict, key: str, default=None) -> tuple[float, float]:
    raw = _require(sc, key, default)
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ScenarioError(f"{key!r} must be a pair of numbers, got {raw!r}")
    return _finite(key, raw[0]), _finite(key, raw[1])


def _out_path(base_dir: str, rel: str) -> str:
    if not isinstance(rel, str) or not rel:
        raise ScenarioError(f"output path must be a nonempty string, got {rel!r}")
    path = os.path.join(base_dir, rel)  # an absolute rel is kept as it is
    # checked before the run: a late failure to open one output would leave the others written
    if not os.path.isdir(os.path.dirname(path)):
        raise ScenarioError(f"output directory does not exist: {os.path.dirname(path)}")
    return path


def _refuse_shared_paths(paths: dict, source: str | None) -> None:
    """ScenarioError if two outputs, or an output and the scenario file ``source``, are one file."""
    seen = {} if source is None else {os.path.realpath(source): "the scenario file"}
    for key, path in paths.items():
        real = os.path.realpath(path)
        if real in seen:
            raise ScenarioError(f"outputs {key!r} and {seen[real]} are one file: {path}")
        seen[real] = f"outputs {key!r}"


def _columns_text(names, columns) -> str:
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    rows = (row.format(*values) for values in np.column_stack(columns).tolist())
    return ",".join(names) + "\n" + "".join(rows)


def _json_text(doc: dict) -> str:
    """``doc`` as sorted, indented JSON; ValueError on NaN or infinity."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _run_simulate(sc: dict, interval, settings):
    cfg = EPConfig(phi=_tf(sc, "phi"), g=_tf(sc, "g"))
    traj = integrate(ep_system(cfg), _pair(sc, "initial"), interval, settings)
    report = {
        "status": traj.status,
        "message": traj.message,
        "interval": [traj.t0, traj.t_end],
        "steps": len(traj.times) - 1,
        "final_state": [float(v) for v in traj.states[-1]],
        "pass": traj.status == COMPLETED,
    }
    return report, (("t", "x", "xdot"), (traj.times, *traj.states.T))


def _completed(*trajectories) -> None:
    for tr in trajectories:
        if tr.status != COMPLETED:
            raise DomainError(f"integration stopped: {tr.status} ({tr.message})")


# the keys every verify-invariant run reads, and those each invariant reads besides
_INVARIANT_READS = ("invariant", "phi", "interval", "settings", "threshold")
_INVARIANT_KEYS = {
    "ermakov": ("h2", "initial", "aux_initial"),
    "lewis": ("initial", "aux_initial"),
    "lorentz": ("initial",),
}


def _invariant_series(sc: dict, interval, settings):
    name = _require(sc, "invariant")
    if not isinstance(name, str) or name not in _INVARIANT_KEYS:
        raise ScenarioError(f"unknown invariant {name!r} (want ermakov, lewis or lorentz)")
    _keyed(sc, "scenario", ("kind", "outputs", *_INVARIANT_READS, *_INVARIANT_KEYS[name]))
    phi = _tf(sc, "phi")

    if name == "lorentz":
        qt = integrate(oscillator_system(phi), _pair(sc, "initial"), interval, settings)
        _completed(qt)
        grid = qt.grid(_SERIES)
        w2 = phi.jet(grid, 0)[0]
        fail_first(w2 <= 0.0, "frequency squared {!r} not positive at t={!r}", w2, grid)
        q, p = qt.sample(grid).T
        return name, lorentz_adiabatic(np.sqrt(w2), q, p)

    # Lewis's invariant is Ermakov's at h^2 = 1 with (x, y) = (rho, q), q starting at initial;
    # the orbit from initial is integrated first, the order scripts/fingerprint.py digests
    h2 = _number(sc, "h2", 1.0)
    start, aux_start = _pair(sc, "initial"), _pair(sc, "aux_initial", (1.0, 0.0))
    ep, osc = ep_system(EPConfig(phi=phi, g=TimeFunction(Const(h2)))), oscillator_system(phi)
    lewis = name == "lewis"
    traj = integrate(osc if lewis else ep, start, interval, settings)
    aux = integrate(ep if lewis else osc, aux_start, interval, settings)
    _completed(traj, aux)
    x, y = (aux, traj) if lewis else (traj, aux)
    return name, ermakov_invariant(x, y, h2, x.grid(_SERIES))


def _run_verify_invariant(sc: dict, interval, settings, threshold):
    name, values = _invariant_series(sc, interval, settings)
    spread = drift(values)
    report = {
        "name": name,
        "interval": list(interval),
        "samples": values.size,
        "mean": float(values.mean()),
        "drift": spread,
        "pass": spread <= threshold,
    }
    return report, None


def _run_verify_symmetry(sc: dict, interval, threshold):
    if "tau" in sc or "xi" in sc:
        sym = point_symmetry(_text(sc, "tau"), _text(sc, "xi"), "scenario")
        ode = SecondOrderODE.from_ep(_tf(sc, "phi"), _tf(sc, "g"))
    else:
        fam = compatible_family(_tf(sc, "g"), _number(sc, "c0"), _number(sc, "m"), interval)
        sym = surviving_symmetry(fam)
        ode = SecondOrderODE.from_ep(_tf(sc, "phi"), fam.g) if "phi" in sc else ep_ode(fam)
    samples = default_samples(interval)
    res = symmetry_residual(sym, ode, samples)
    report = {"residual": float(res), "samples": len(samples), "pass": bool(res <= threshold)}
    return report, None


def _run_reduce(sc: dict, interval, settings, threshold):
    fam = compatible_family(_tf(sc, "g"), _number(sc, "c0"), _number(sc, "m"), interval)
    chart = canonical_chart(fam, sigma=_number(sc, "sigma", 0.25))
    traj = integrate(
        ep_system(EPConfig(phi=fam.phi, g=fam.g)), _pair(sc, "initial"), interval, settings
    )
    _completed(traj)
    orbit = transform_trajectory(chart, traj)
    res = autonomous_residual(orbit, fam.omega)
    abel = abel_residual(orbit, fam.omega)
    report = {
        "omega": fam.omega,
        "sigma": chart.sigma,
        "autonomous_residual": float(res),
        "abel_residual": abel.residual,
        "abel_samples_used": abel.samples_used,
        "abel_samples_skipped": abel.samples_skipped,
        "abel_threshold": _ABEL_TOL,
        "pass": bool(res <= threshold and abel.residual <= _ABEL_TOL),
    }
    return report, (("T", "X", "V"), (orbit.T, orbit.X, orbit.V))


def _run_eliezer_grey(sc: dict, interval, settings, threshold):
    cfg = CentralFieldConfig(phi=_tf(sc, "phi"), k=_tf(sc, "k", "0"))
    raw = _keyed(_require(sc, "initial"), "initial", ("r", "rdot", "theta", "thetadot"))
    init = PolarState(
        r=_number(raw, "r"),
        rdot=_number(raw, "rdot", 0.0),
        theta=_number(raw, "theta", 0.0),
        thetadot=_number(raw, "thetadot"),
    )
    traj = simulate_polar(cfg, init, interval, settings)
    _completed(traj)
    quad = k_integral(cfg, (traj.t0, traj.t_end), settings)
    am_drift = angular_momentum_check(traj, cfg, quad=quad)
    radial = radial_ep_residual(traj, cfg, quad=quad)
    report = {
        "angular_momentum_drift": float(am_drift),
        "radial_residual": float(radial),
        "chart_qualified": chart_qualified(traj, cfg, quad=quad),
        "pass": bool(am_drift <= threshold and radial <= threshold),
    }
    return report, (("t", "r", "rdot", "theta", "L"), (traj.times, *traj.states.T))


# kind -> (runner, the scenario keys it reads, the outputs keys it writes); a runner
# takes the scenario and, by name, the shared keys of _SHARED it reads, and returns
# (document, table): a report with "pass", or the ledger, and (names, columns) or None
_KINDS = {
    "simulate": (_run_simulate, ("phi", "g", "interval", "initial", "settings"), ("csv", "report")),
    "verify-invariant": (
        _run_verify_invariant,
        (*_INVARIANT_READS, *dict.fromkeys(k for keys in _INVARIANT_KEYS.values() for k in keys)),
        ("report",),
    ),
    "verify-symmetry": (
        _run_verify_symmetry,
        ("tau", "xi", "phi", "g", "c0", "m", "interval", "threshold"),
        ("report",),
    ),
    "reduce": (
        _run_reduce,
        ("g", "c0", "m", "sigma", "initial", "interval", "settings", "threshold"),
        ("csv", "report"),
    ),
    "eliezer-grey": (
        _run_eliezer_grey,
        ("phi", "k", "initial", "interval", "settings", "threshold"),
        ("csv", "report"),
    ),
    "audit-all": (lambda sc: (audit_all(), None), (), ("ledger",)),
}

# the keys several kinds read, each parsed once by _dispatch for a kind that reads it
_SHARED = {
    "interval": _interval,
    "settings": _settings,
    "threshold": lambda sc: _number(sc, "threshold", _DEFAULT_TOL),
}


def _dispatch(sc: dict, source: str | None) -> int:
    """Run scenario ``sc``, read from the file ``source`` (None for the audit-all subcommand)."""
    if not isinstance(sc, dict):
        raise ScenarioError("scenario file must contain one JSON object")
    kind = _require(sc, "kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ScenarioError(f"unknown kind {kind!r} (want one of {sorted(_KINDS)})")
    run, reads, writes = _KINDS[kind]
    _keyed(sc, "scenario", ("kind", "outputs", *reads))
    outputs = _keyed(sc.get("outputs", {}), "outputs", writes)
    base_dir = os.getcwd() if source is None else os.path.dirname(os.path.abspath(source))
    paths = {key: _out_path(base_dir, rel) for key, rel in outputs.items()}
    _refuse_shared_paths(paths, source)
    shared = {key: parse(sc) for key, parse in _SHARED.items() if key in reads}
    doc, table = run(sc, **shared)
    ledger = kind == "audit-all"
    if not ledger:
        doc["kind"] = kind
        if "threshold" in shared:
            doc["threshold"] = shared["threshold"]
    # every output is rendered before any file is opened, so a refused value writes nothing
    texts = {"ledger" if ledger else "report": _json_text(doc)}
    if "csv" in paths:
        texts["csv"] = _columns_text(*table)
    for key, path in paths.items():
        with open(path, "w") as fh:
            fh.write(texts[key])
    if ledger and not paths:
        sys.stdout.write(texts["ledger"])
    if not doc["all_resolved" if ledger else "pass"]:
        sys.stderr.write(f"epwb: check failed: {json.dumps(doc, sort_keys=True)}\n")
        return 2
    return 0


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
    return _guarded_dispatch(scenario, path)


def _guarded_dispatch(scenario, source: str | None) -> int:
    try:
        return _dispatch(scenario, source)
    except ExprSyntaxError as exc:
        sys.stderr.write(f"epwb: expression error: {exc}\n")
        return 1
    except ValueError as exc:
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main call and kept: parsing leaves the parser as it was
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
        return _guarded_dispatch({"kind": "audit-all", "outputs": outputs}, None)
    return _cmd_run(args.scenario)


if __name__ == "__main__":
    raise SystemExit(main())
