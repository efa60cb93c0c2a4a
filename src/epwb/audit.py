"""Corrections ledger: every formula the workbench had to disambiguate.

The printed source material for this family of identities carries five
internal inconsistencies (conflicting readings of the same formula in
different places, or a form that contradicts what a neighboring derivation
forces).  Each entry below evaluates BOTH candidate readings against an
independent numerical oracle and records the residuals and the verdict.
Nothing here is tuned, and in every entry the rejected reading fails by
many orders of magnitude.  Only wronskian-exponent depends on the
integration: its accepted reading lands at integrator accuracy.  The other
four are identities that hold at rounding level on any data, so they test
the formula and not the orbit: the bracket is algebra over the symmetry
fields, the product entry builds z'' = -a z from z and z' by Leibniz's
rule, and the chart and Abel entries take x'' from the producing
right-hand side at each sampled state.

Entries, in fixed order:
  wronskian-exponent        h^2 = (AC - B^2) W   vs   (AC - B^2) W^2
  product-base-coefficient  products over z'' + a z = 0  vs  z'' + (a/2) z = 0
  bracket-gamma23           [G2, G3] = -2F G3    vs   -2F G1
  chart-time-scale          T = (3/4) log G      vs   (1/4) log G
  abel-powers               v v' + 2v + Omega - 16/u = 0  vs
                            v v' + 2v + Omega u - 16/u^3 = 0

By convention reading_a is the rejected literal form and reading_b the
verified correction, mirroring how the discriminating tests are phrased.
"""

from __future__ import annotations

import json

import numpy as np

from .expressions import time_function
from .ode import integrate, worst_residual
from .oscillator import basis_with_ics
from .pinney import EPConfig, ep_residual, ep_system, pinney_solution
from .reduction import abel_residual, autonomous_residual, canonical_chart, transform_trajectory
from .symmetry import autonomous_family, compatible_family, lie_bracket
from .third_order import ThirdOrderConfig, product_solution, third_order_residual


def _entry(entry_id, question, stmt_a, res_a, stmt_b, res_b, accept_tol, reject_tol):
    resolved = bool(res_b <= accept_tol and res_a >= reject_tol)
    return {
        "id": entry_id,
        "question": question,
        "reading_a": {"statement": stmt_a, "residual": float(res_a)},
        "reading_b": {"statement": stmt_b, "residual": float(res_b)},
        "verdict": "reading_b",
        "accept_tol": accept_tol,
        "reject_tol": reject_tol,
        "resolved": resolved,
    }


def _wronskian_entry() -> dict:
    phi = time_function("1")
    basis = basis_with_ics(phi, (0.0, 10.0), (1.0, 0.0), (0.0, 2.0))
    x, h2_squared = pinney_solution(basis, 1.0, 0.0, 1.0, wronskian_power=2)
    _, h2_linear = pinney_solution(basis, 1.0, 0.0, 1.0, wronskian_power=1)
    grid = np.linspace(0.0, 10.0, 201)
    res_a = ep_residual(EPConfig(phi=phi, g=time_function(repr(h2_linear))), x, grid)
    res_b = ep_residual(EPConfig(phi=phi, g=time_function(repr(h2_squared))), x, grid)
    return _entry(
        "wronskian-exponent",
        "power of the Wronskian in the superposition constant h^2",
        "h^2 = (A C - B^2) W",
        res_a,
        "h^2 = (A C - B^2) W^2",
        res_b,
        1e-6,
        0.1,
    )


def _product_base_entry() -> dict:
    cfg = ThirdOrderConfig(a=time_function("2"))
    interval = (0.0, 6.0)
    grid = np.linspace(*interval, 201)
    literal = basis_with_ics(time_function("2"), interval, (1.0, 0.0), (0.0, 1.0))
    halved = basis_with_ics(time_function("1"), interval, (1.0, 0.0), (0.0, 1.0))
    res_a = third_order_residual(cfg, product_solution(literal, 1.0, 0.0, 0.0), grid)
    res_b = third_order_residual(cfg, product_solution(halved, 1.0, 0.0, 0.0), grid)
    return _entry(
        "product-base-coefficient",
        "base oscillator whose solution products solve w''' + 2a w' + a' w = 0",
        "z'' + a z = 0",
        res_a,
        "z'' + (a/2) z = 0",
        res_b,
        1e-6,
        0.5,
    )


def _bracket_entry() -> dict:
    g1, g2, g3 = autonomous_family(1.0)
    b23 = lie_bracket(g2, g3)
    t = np.repeat(np.linspace(0.2, 2.8, 7), 3)
    x = np.tile((0.5, 1.0, 2.0), 7)
    bt, bx = b23.components(t, x)

    def distance(candidate, scale):
        ct, cx = candidate.components(t, x)
        return worst_residual(np.concatenate((bt - scale * ct, bx - scale * cx)))

    res_a = distance(g3, -2.0)
    res_b = distance(g1, -2.0)
    return _entry(
        "bracket-gamma23",
        "which basis element [Gamma_2, Gamma_3] returns (frequency f = 1)",
        "[Gamma_2, Gamma_3] = -2f Gamma_3",
        res_a,
        "[Gamma_2, Gamma_3] = -2f Gamma_1",
        res_b,
        1e-10,
        0.1,
    )


def _chart_pipeline():
    fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
    traj = integrate(ep_system(EPConfig(phi=fam.phi, g=fam.g)), [1.0, 0.0], fam.interval)
    orbit_quarter = transform_trajectory(canonical_chart(fam, 0.25), traj, n=200)
    orbit_literal = transform_trajectory(canonical_chart(fam, 0.75), traj, n=200)
    return fam, orbit_quarter, orbit_literal


def _chart_scale_entry(fam, orbit_quarter, orbit_literal) -> dict:
    res_a = autonomous_residual(orbit_literal, fam.omega)
    res_b = autonomous_residual(orbit_quarter, fam.omega)
    return _entry(
        "chart-time-scale",
        "scale sigma in the rectifying time T = sigma log G",
        "T = (3/4) log G",
        res_a,
        "T = (1/4) log G",
        res_b,
        1e-6,
        0.1,
    )


def _abel_entry(fam, orbit_quarter) -> dict:
    res_a = abel_residual(orbit_quarter, fam.omega, literal=True).residual
    res_b = abel_residual(orbit_quarter, fam.omega).residual
    return _entry(
        "abel-powers",
        "powers of u in the phase-plane relation for (u, v) = (X, dX/dT)",
        "v dv/du + 2v + Omega - 16/u = 0",
        res_a,
        "v dv/du + 2v + Omega u - 16/u^3 = 0",
        res_b,
        1e-5,
        0.1,
    )


def audit_all() -> dict:
    """Run every discriminator and return the ledger as a plain dict."""
    fam, orbit_quarter, orbit_literal = _chart_pipeline()
    entries = [
        _wronskian_entry(),
        _product_base_entry(),
        _bracket_entry(),
        _chart_scale_entry(fam, orbit_quarter, orbit_literal),
        _abel_entry(fam, orbit_quarter),
    ]
    return {
        "entries": entries,
        "all_resolved": all(e["resolved"] for e in entries),
    }


def ledger_json(report: dict) -> str:
    """Deterministic JSON rendering of the ``audit_all`` ledger (sorted keys, no timestamps)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
