"""The four benchmark workloads, each a fixed batch of checks drawn from a seed.

A check takes one claim about ``x'' + phi(t) x = g(t)/x^3`` to a verdict
through the public API of ``epwb``.  Every check carries its expected
verdict: an accepted reading must come out at or below its tolerance, a
rejected reading at or above its ledger margin.  The benchmark, not the
program, decides: a check fails when its verdict is wrong, when it raises,
when the value it returns is not finite, or when it used zero samples.

Inputs are plain data (expression strings and floats) drawn from the seed
once, at set-up.  Every pass rebuilds every object from that data, so each
pass does the same work and per-pass counters repeat exactly.  The seed
varies coefficients, forms and initial conditions but never the shape of an
expression or the size of a grid, so the cost of a pass hardly depends on it.

Why each workload exists, which layer it loads and which it bypasses:

superposition  the read path of ``ode``: few integrations, hundreds of
               thousands of ``Trajectory.sample`` calls through the
               ``oscillator`` and ``pinney`` curve recursions.
long_orbit     the write path of ``ode``: long orbits under fast
               modulation, many steps and right-hand-side evaluations,
               few sampled points.
symmetry       ``expressions`` tree walks over (t, x, v) lattices; no
               integration at all.
scenarios      the ``cli``, ``audit`` and ``reduction`` pipelines exactly as
               users run them, including report writing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import epwb as E
import epwb.symmetry as S
from epwb import cli


@dataclass(frozen=True)
class Check:
    """One claim; ``run(state)`` returns (value, samples used)."""

    name: str
    run: Callable[[dict], tuple[float, int]]
    accept: bool  # True: value <= limit must hold; False: value >= limit must hold
    limit: float


def holds(check: Check, value: float, samples: int) -> bool:
    """The verdict oracle: finite, non-vacuous, and on the expected side."""
    if not (isinstance(value, float) and math.isfinite(value)) or samples < 1:
        return False
    return value <= check.limit if check.accept else value >= check.limit


def _worst(terms) -> float:
    """Largest magnitude among ``terms``; NaN if any term is NaN, so no NaN is swallowed."""
    return float(np.max(np.abs(np.asarray(list(terms), dtype=float))))


def _grid(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _num(rng: random.Random, lo: float, hi: float) -> float:
    # six decimals keep the generated expression strings short and exact
    return round(rng.uniform(lo, hi), 6)


def _form(rng: random.Random, lo: float, hi: float, skew: float) -> tuple[float, float, float]:
    """Positive-definite (A, B, C): A, C in [lo, hi], |B| <= skew * sqrt(AC)."""
    a = _num(rng, lo, hi)
    c = _num(rng, lo, hi)
    b = round(math.sqrt(a * c) * rng.uniform(-skew, skew), 6)
    return a, b, c


# ---------------------------------------------------------------------------
# superposition: many quadratic forms over a few fundamental pairs

SUP_INTERVAL = (0.0, 10.0)
SUP_GRID = 101
SUP_FORMS = 8
SUP_THIRD_FORMS = 4


def _basis_check(key: str, phi_text: str, ic_v=(0.0, 1.0), interval=SUP_INTERVAL):
    """Build a basis into the pass state; claim its Wronskian stays W(t0)."""

    def run(state):
        basis = E.basis_with_ics(E.time_function(phi_text), interval, (1.0, 0.0), ic_v)
        state[key] = basis
        grid = _grid(*interval, 21)
        w0 = basis.wronskian0
        return _worst(E.wronskian(basis, t) - w0 for t in grid) / abs(w0), len(grid)

    return run


def _equation_check(key: str, phi_text: str):
    """The basis solution u solves the oscillator parsed afresh from its text."""

    def run(state):
        grid = _grid(*SUP_INTERVAL, SUP_GRID)
        system = E.oscillator_system(E.time_function(phi_text))
        return E.residual(system, state[key].u, grid), len(grid)

    return run


def _pinney_check(key: str, phi_text: str, form, power: int = 2):
    def run(state):
        x, h2 = E.pinney_solution(state[key], *form, wronskian_power=power)
        cfg = E.EPConfig(E.time_function(phi_text), E.time_function(repr(h2)))
        grid = _grid(*SUP_INTERVAL, SUP_GRID)
        return E.ep_residual(cfg, x, grid), len(grid)

    return run


def _third_order_check(key: str, a_text: str, form, interval=SUP_INTERVAL):
    def run(state):
        cfg = E.ThirdOrderConfig(E.time_function(a_text))
        grid = _grid(*interval, SUP_GRID)
        w = E.product_solution(state[key], *form)
        return E.third_order_residual(cfg, w, grid), len(grid)

    return run


def _rho_check(key: str, a_text: str, form):
    def run(state):
        cfg = E.ThirdOrderConfig(E.time_function(a_text))
        grid = _grid(*SUP_INTERVAL, SUP_GRID)
        _, res = E.rho_substitution(cfg, E.product_solution(state[key], *form), grid)
        return res, len(grid)

    return run


def build_superposition(rng: random.Random, workdir: str) -> list[Check]:
    checks = []
    phis = (
        f"{_num(rng, 0.8, 1.2)!r}",
        f"1+{_num(rng, 0.4, 0.6)!r}*sin({_num(rng, 0.9, 1.1)!r}*t)",
        f"{_num(rng, 1.0, 1.5)!r}/((1+t)^2)",
    )
    for i, phi in enumerate(phis):
        key = f"phi{i}"
        checks.append(Check(f"basis/{key}", _basis_check(key, phi), True, 1e-8))
        checks.append(Check(f"residual/{key}", _equation_check(key, phi), True, 1e-9))
        for j in range(SUP_FORMS):
            form = _form(rng, 0.5, 3.0, 0.9)
            checks.append(Check(f"ep_residual/{key}/{j}", _pinney_check(key, phi, form), True, 1e-6))

    a_texts = (f"2*(1+{_num(rng, 0.4, 0.6)!r}*sin(t))", f"{_num(rng, 1.5, 2.5)!r}")
    for i, a_text in enumerate(a_texts):
        key = f"half{i}"
        half = f"0.5*({a_text})"
        checks.append(Check(f"basis/{key}", _basis_check(key, half), True, 1e-8))
        for j in range(SUP_THIRD_FORMS):
            form = _form(rng, 0.5, 2.0, 0.9)
            checks.append(
                Check(f"third_order/{key}/{j}", _third_order_check(key, a_text, form), True, 1e-6)
            )
            checks.append(Check(f"rho/{key}/{j}", _rho_check(key, a_text, form), True, 1e-6))

    # rejected readings, each beside its accepted counterpart (ledger margins)
    for i in range(2):
        key = f"scaled{i}"
        phi = f"{_num(rng, 0.8, 1.2)!r}"
        scale = _num(rng, 1.8, 2.2)  # W = scale discriminates W from W^2
        form = _form(rng, 0.8, 1.2, 0.3)
        checks.append(Check(f"basis/{key}", _basis_check(key, phi, (0.0, scale)), True, 1e-8))
        checks.append(Check(f"wronskian_squared/{key}", _pinney_check(key, phi, form, 2), True, 1e-6))
        checks.append(Check(f"wronskian_linear/{key}", _pinney_check(key, phi, form, 1), False, 0.1))
    for i in range(2):
        a_text = f"{_num(rng, 1.8, 2.2)!r}"
        interval = (0.0, 6.0)
        full, half = f"full{i}", f"halved{i}"
        checks.append(Check(f"basis/{full}", _basis_check(full, a_text, interval=interval), True, 1e-8))
        checks.append(
            Check(f"basis/{half}", _basis_check(half, f"0.5*({a_text})", interval=interval), True, 1e-8)
        )
        unit = (1.0, 0.0, 0.0)
        checks.append(
            Check(f"product_halved/{i}", _third_order_check(half, a_text, unit, interval), True, 1e-6)
        )
        checks.append(
            Check(f"product_unhalved/{i}", _third_order_check(full, a_text, unit, interval), False, 0.5)
        )
    return checks


# ---------------------------------------------------------------------------
# long_orbit: long integrations, few samples

LONG_T = 60.0
LONG_GRID = 21
CATALOG_T = 10.0
CATALOG_GRID = 11


def _ermakov_check(phi_text: str, h2: float, x0, y0, t_end: float, n: int):
    def run(state):
        phi = E.time_function(phi_text)
        interval = (0.0, t_end)
        x = E.integrate(E.ep_system(E.EPConfig(phi, E.time_function(repr(h2)))), x0, interval)
        y = E.integrate(E.oscillator_system(phi), y0, interval)
        if x.status != E.COMPLETED or y.status != E.COMPLETED:
            return math.inf, 0
        grid = _grid(*interval, n)
        return E.drift([E.ermakov_invariant(x, y, h2, t) for t in grid]), len(grid)

    return run


def _lewis_check(phi_text: str, q0, rho0, t_end: float, n: int):
    def run(state):
        phi = E.time_function(phi_text)
        interval = (0.0, t_end)
        q = E.integrate(E.oscillator_system(phi), q0, interval)
        rho = E.integrate(E.ep_system(E.EPConfig(phi, E.time_function("1"))), rho0, interval)
        if q.status != E.COMPLETED or rho.status != E.COMPLETED:
            return math.inf, 0
        grid = _grid(*interval, n)
        values = []
        for t in grid:
            qv, pv = q.sample(t)
            rv, rd = rho.sample(t)
            values.append(E.lewis_invariant(E.LewisState(qv, pv, rv, rd)))
        return E.drift(values), len(grid)

    return run


def _lorentz_check(phi_text: str, q0, t_end: float, n: int):
    def run(state):
        phi = E.time_function(phi_text)
        q = E.integrate(E.oscillator_system(phi), q0, (0.0, t_end))
        if q.status != E.COMPLETED:
            return math.inf, 0
        grid = _grid(0.0, t_end, n)
        values = [E.lorentz_adiabatic(math.sqrt(phi.eval(t)), *q.sample(t)) for t in grid]
        return E.drift(values), len(grid)

    return run


def _polar_run(key: str, phi_text: str, k_text: str, init):
    """Radial identity along a driven polar orbit; keeps the orbit for the next check."""

    def run(state):
        cfg = E.CentralFieldConfig(E.time_function(phi_text), E.time_function(k_text))
        traj = E.simulate_polar(cfg, E.PolarState(*init), (0.0, CATALOG_T))
        if traj.status != E.COMPLETED:
            return math.inf, 0
        state[key] = (cfg, traj)
        return E.radial_ep_residual(traj, cfg, n=CATALOG_GRID), CATALOG_GRID

    return run


def _momentum_check(key: str):
    def run(state):
        cfg, traj = state[key]
        return E.angular_momentum_check(traj, cfg, n=CATALOG_GRID), CATALOG_GRID

    return run


def build_long_orbit(rng: random.Random, workdir: str) -> list[Check]:
    checks = []
    # The four long orbits are the slowest checks, so the p90 check time is
    # theirs.  The three polar orbits (about 45 ms each) join the four
    # mid-cost catalog checks in one group, and the median of check time
    # falls inside it rather than in the gap above it.
    fast = (
        f"1+{_num(rng, 0.45, 0.55)!r}*sin({_num(rng, 2.9, 3.1)!r}*t)",
        f"1+{_num(rng, 0.45, 0.55)!r}*cos({_num(rng, 2.9, 3.1)!r}*t)",
    )
    for i, phi in enumerate(fast):
        h2 = _num(rng, 1.5, 2.5)
        x0 = (_num(rng, 0.9, 1.1), 0.0)
        checks.append(
            Check(
                f"long/ermakov/{i}",
                _ermakov_check(phi, h2, x0, (1.0, 0.0), LONG_T, LONG_GRID),
                True,
                1e-6,
            )
        )
        q0 = (_num(rng, 0.4, 0.6), 1.0)
        checks.append(
            Check(f"long/lewis/{i}", _lewis_check(phi, q0, (1.0, 0.0), LONG_T, LONG_GRID), True, 1e-6)
        )
        # the adiabatic ratio is not invariant under fast modulation: it must drift
        checks.append(
            Check(f"long/lorentz/{i}", _lorentz_check(phi, (1.0, 0.0), LONG_T, LONG_GRID), False, 1e-2)
        )

    catalog = (
        f"{_num(rng, 0.8, 1.2)!r}",
        "0",
        f"{_num(rng, 3.6, 4.4)!r}",
        f"1+{_num(rng, 0.4, 0.6)!r}*sin(t)",
        f"{_num(rng, 1.0, 1.5)!r}/((1+t)^2)",
    )
    for i, phi in enumerate(catalog):
        h2 = _num(rng, 1.5, 2.5)
        x0 = (_num(rng, 0.9, 1.1), 0.0)
        checks.append(
            Check(
                f"catalog/ermakov/{i}",
                _ermakov_check(phi, h2, x0, (1.0, 0.0), CATALOG_T, CATALOG_GRID),
                True,
                1e-6,
            )
        )
        q0 = (_num(rng, 0.4, 0.6), 1.0)
        checks.append(
            Check(
                f"catalog/lewis/{i}",
                _lewis_check(phi, q0, (1.0, 0.0), CATALOG_T, CATALOG_GRID),
                True,
                1e-6,
            )
        )

    for i, k_text in enumerate(("0", f"{_num(rng, 0.05, 0.15)!r}", f"{_num(rng, 0.15, 0.25)!r}")):
        key = f"polar{i}"
        phi = f"1+{_num(rng, 0.4, 0.6)!r}*sin(t)"
        init = (_num(rng, 1.1, 1.3), _num(rng, 0.2, 0.4), 0.0, _num(rng, 0.7, 0.9))
        checks.append(Check(f"polar/radial/{i}", _polar_run(key, phi, k_text, init), True, 1e-6))
        checks.append(Check(f"polar/momentum/{i}", _momentum_check(key), True, 1e-7))
    return checks


# ---------------------------------------------------------------------------
# symmetry: expression tree walks, no integration

SYM_LATTICE = 6  # n^3 (t, x, v) samples per residual


def _surviving_check(g_text: str, interval, c0: float, m: float, shift: str | None = None):
    """Gamma_s against the compatible equation, or against a perturbed phi."""

    def run(state):
        fam = E.compatible_family(E.time_function(g_text), c0, m, interval)
        sym = E.surviving_symmetry(fam)
        if shift is None:
            ode = E.ep_ode(fam)
        else:
            phi = E.time_function(f"{E.canonical(fam.phi.expr)}+{shift}")
            ode = E.SecondOrderODE.from_ep(phi, fam.g)
        samples = S.default_samples(interval, n=SYM_LATTICE)
        return E.symmetry_residual(sym, ode, samples), len(samples)

    return run


def _autonomous_check(f: float, g: float, index: int):
    def run(state):
        ode = E.SecondOrderODE.from_ep(E.time_function(repr(f * f)), E.time_function(repr(g)))
        samples = S.default_samples((0.0, 6.0), n=SYM_LATTICE)
        return E.symmetry_residual(S.autonomous_family(f)[index], ode, samples), len(samples)

    return run


_BRACKET_POINTS = [(0.2 + 2.6 * i / 6, x) for i in range(7) for x in (0.5, 1.0, 2.0)]


def _bracket_check(f: float, target: int):
    """Distance of [Gamma_2, Gamma_3] from -2f Gamma_target over sample points."""

    def run(state):
        fam = S.autonomous_family(f)
        br = S.lie_bracket(fam[1], fam[2])
        terms = []
        for t, x in _BRACKET_POINTS:
            bt, bx = br.components(t, x)
            ct, cx = fam[target].components(t, x)
            terms += (bt + 2 * f * ct, bx + 2 * f * cx)
        return _worst(terms), len(_BRACKET_POINTS)

    return run


_STRUCTURE_POINTS = [(0.3 + 5.4 * i / 6, x) for i in range(7) for x in (0.7, 1.1, 1.9)]


def _structure_check(f: float):
    """Structure constants fit and match the so(2,1) table, Killing form included."""

    def run(state):
        c, fit = E.structure_constants(S.autonomous_family(f), _STRUCTURE_POINTS)
        expected = {(0, 1): (0, 0, 2 * f), (0, 2): (0, -2 * f, 0), (1, 2): (-2 * f, 0, 0)}
        terms = [float(fit)]
        for (i, j), row in expected.items():
            terms += (float(c[i, j, k]) - row[k] for k in range(3))
        killing = E.killing_form(c)
        diag = (-8 * f * f, 8 * f * f, 8 * f * f)
        for a in range(3):
            for b in range(3):
                want = diag[a] if a == b else 0.0
                terms.append((float(killing[a, b]) - want) / (8 * f * f))
        return _worst(terms), len(_STRUCTURE_POINTS)

    return run


def build_symmetry(rng: random.Random, workdir: str) -> list[Check]:
    checks = []
    power_law = (
        (f"({_num(rng, 0.8, 1.2)!r}+t)^4", (0.0, 3.0)),
        (f"({_num(rng, 1.8, 2.2)!r}+t)^3", (0.0, 3.0)),
    )
    exponential = (
        (f"exp({_num(rng, 3.6, 4.4)!r}*t)", (0.0, 2.0)),
        (f"exp({_num(rng, 0.8, 1.2)!r}*t)", (0.0, 3.0)),
    )
    for g_text, interval in power_law + exponential:
        for j in range(3):
            c0, m = _num(rng, 0.8, 1.2), _num(rng, 0.0, 2.0)
            checks.append(
                Check(f"surviving/{g_text}/{j}", _surviving_check(g_text, interval, c0, m), True, 1e-6)
            )
    # perturbed-phi controls: a constant shift breaks power-law G, is absorbed
    # by exponential G (scale invariance), and a time ramp breaks both
    for g_text, interval in power_law:
        c0, m = _num(rng, 0.8, 1.2), _num(rng, 0.5, 1.5)
        checks.append(
            Check(f"perturbed/{g_text}", _surviving_check(g_text, interval, c0, m, "0.1"), False, 1e-3)
        )
    g_text, interval = exponential[0]
    c0, m = _num(rng, 0.8, 1.2), _num(rng, 0.5, 1.5)
    checks.append(
        Check(f"shift_absorbed/{g_text}", _surviving_check(g_text, interval, c0, m, "0.1"), True, 1e-8)
    )
    checks.append(
        Check(f"ramp/{g_text}", _surviving_check(g_text, interval, c0, m, "0.1*t"), False, 1e-3)
    )

    f = _num(rng, 0.8, 1.2)
    g = _num(rng, 0.5, 2.0)
    for index in range(3):
        checks.append(Check(f"autonomous/{index}", _autonomous_check(f, g, index), True, 1e-6))
    checks.append(Check("bracket/gamma1", _bracket_check(f, 0), True, 1e-10))
    checks.append(Check("bracket/gamma3", _bracket_check(f, 2), False, 0.1))
    checks.append(Check("structure_constants", _structure_check(f), True, 1e-6))
    return checks


# ---------------------------------------------------------------------------
# scenarios: the command line, as users run it


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _report_samples(report: dict, rows: int) -> int:
    """Samples (or steps, or ledger entries) a report says it used; 0 if none.

    A report that carries no count of its own (eliezer-grey) is credited with
    ``rows``, the data rows of the table written beside it; 0 if none was.
    """
    for key in ("samples", "abel_samples_used", "steps"):
        if key in report:
            return int(report[key])
    if "entries" in report:
        return len(report["entries"])
    return rows


def _table_rows(data: bytes) -> int:
    """Data rows of a written CSV or DAT table (its header line excluded)."""
    lines = [line for line in data.decode().splitlines() if line.strip()]
    return max(len(lines) - 1, 0)


def _cli_check(workdir: str, argv: list[str], outputs: list[str], digests: dict, key: str):
    """Run ``epwb`` in-process; value is the exit code, outputs must repeat byte for byte.

    The first pass records a digest of stdout and every output file; later
    passes must reproduce it exactly.
    """

    def run(state):
        for rel in outputs:
            path = os.path.join(workdir, rel)
            if os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode())
        reports = [json.loads(out.getvalue())] if out.getvalue() else []
        tables = []
        for rel in outputs:
            with open(os.path.join(workdir, rel), "rb") as fh:
                data = fh.read()
            digest.update(data)
            if rel.endswith(".json"):
                reports.append(json.loads(data))
            else:
                tables.append(_table_rows(data))
        if not all(_finite_numbers(r) for r in reports):
            raise ValueError("a report holds a non-finite number")
        if digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
            raise ValueError("outputs differ from those of the first pass")
        rows = min(tables, default=0)
        return float(code), min((_report_samples(r, rows) for r in reports), default=0)

    return run


def _shipped_scenarios(root: str) -> dict[str, dict]:
    folder = os.path.join(root, "scenarios")
    shipped = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".json"):
            with open(os.path.join(folder, name)) as fh:
                shipped[name[:-5]] = json.load(fh)
    if len(shipped) != 6:
        raise RuntimeError(f"expected the six shipped scenarios in {folder}, found {sorted(shipped)}")
    return shipped


def _variants(rng: random.Random, shipped: dict[str, dict]) -> dict[str, tuple[dict, int]]:
    """Seed-varied copies of every kind but audit, plus two rejected readings."""
    sim = dict(shipped["simulate_equilibrium"], initial=[_num(rng, 0.9, 1.1), _num(rng, -0.1, 0.1)])
    sim["g"] = f"{_num(rng, 0.8, 1.2)!r}"
    ermakov = dict(
        shipped["verify_ermakov"],
        phi=f"1+{_num(rng, 0.4, 0.6)!r}*sin(t)",
        h2=_num(rng, 2.0, 2.5),
        initial=[_num(rng, 0.9, 1.1), 0.0],
    )
    lewis = dict(ermakov, invariant="lewis", initial=[_num(rng, 0.4, 0.6), 1.0])
    del lewis["h2"]
    symmetry = dict(shipped["verify_surviving_symmetry"], c0=_num(rng, 0.8, 1.2), m=_num(rng, 0.0, 2.0))
    reduce = dict(shipped["reduce_quartic"], c0=_num(rng, 0.9, 1.1), m=_num(rng, 1.5, 2.5))
    forced = dict(shipped["central_field_forced"], k=f"{_num(rng, 0.05, 0.15)!r}")
    forced["initial"] = {"r": _num(rng, 0.9, 1.1), "thetadot": _num(rng, 0.9, 1.1)}
    free = dict(forced, k="0", phi=f"1+{_num(rng, 0.4, 0.6)!r}*sin(t)")
    modulated = dict(sim, phi=f"1+{_num(rng, 0.4, 0.6)!r}*sin(t)", interval=[0.0, 10.0])
    # an explicit generator: Gamma_2 of the constant-frequency family
    f = _num(rng, 0.8, 1.2)
    explicit = dict(
        shipped["verify_surviving_symmetry"],
        phi=repr(f * f),
        g=f"{_num(rng, 0.5, 2.0)!r}",
        tau=f"sin({2 * f!r}*t)",
        xi=f"{f!r}*x*cos({2 * f!r}*t)",
        interval=[0.0, 6.0],
    )
    # rejected readings: the 3/4 chart time scale, and the adiabatic ratio
    # under fast modulation; the command line must exit 2 on both
    literal_chart = dict(reduce, sigma=0.75)
    lorentz = dict(
        shipped["verify_ermakov"],
        invariant="lorentz",
        phi=f"1+{_num(rng, 0.4, 0.6)!r}*sin({_num(rng, 2.9, 3.1)!r}*t)",
        initial=[1.0, 0.0],
    )
    del lorentz["h2"], lorentz["aux_initial"]
    return {
        "simulate_varied": (sim, 0),
        "ermakov_varied": (ermakov, 0),
        "lewis_varied": (lewis, 0),
        "symmetry_varied": (symmetry, 0),
        "reduce_varied": (reduce, 0),
        "central_field_varied": (forced, 0),
        "central_field_free": (free, 0),
        "simulate_modulated": (modulated, 0),
        "symmetry_explicit": (explicit, 0),
        "reduce_literal_chart": (literal_chart, 2),
        "lorentz_fast": (lorentz, 2),
    }


def build_scenarios(rng: random.Random, workdir: str) -> list[Check]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shipped = _shipped_scenarios(root)
    plan = {name: (sc, 0) for name, sc in shipped.items()}
    plan.update(_variants(rng, shipped))
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    digests: dict[str, str] = {}
    checks = []
    for name, (sc, expected) in plan.items():
        sc = dict(sc)
        # outputs are resolved next to the scenario file: keep them in workdir
        sc["outputs"] = {
            key: f"out/{name}_{key}{os.path.splitext(rel)[1]}" for key, rel in sc["outputs"].items()
        }
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(sc, fh, indent=2, sort_keys=True)
        run = _cli_check(workdir, ["run", path], list(sc["outputs"].values()), digests, name)
        # the verdict is the exit code: 0 for an accepted reading, 2 for a rejected one
        checks.append(Check(f"run/{name}", run, expected == 0, float(expected)))
    ledger = "out/audit_all_ledger.json"
    argv = ["audit-all", "--out", os.path.join(workdir, ledger)]
    run = _cli_check(workdir, argv, [ledger], digests, "audit-file")
    checks.append(Check("audit-all/file", run, True, 0.0))
    run = _cli_check(workdir, ["audit-all"], [], digests, "audit-stdout")
    checks.append(Check("audit-all/stdout", run, True, 0.0))
    return checks


_BUILDERS = {
    "superposition": build_superposition,
    "long_orbit": build_long_orbit,
    "symmetry": build_symmetry,
    "scenarios": build_scenarios,
}


def build(name: str, seed: int, workdir: str) -> list[Check]:
    """The workload's batch of checks, drawn from ``seed`` alone."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), workdir)
