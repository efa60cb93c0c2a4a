"""Acceptance gate: one test per headline criterion, run at stated tolerances.

Each test prints a `[criterion N] PASS/FAIL - description` line so the whole
gate reads as a checklist under `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from epwb import (
    CentralFieldConfig,
    EPConfig,
    PolarState,
    SecondOrderODE,
    ThirdOrderConfig,
    angular_momentum_check,
    audit_all,
    autonomous_residual,
    basis_with_ics,
    canonical_chart,
    compatible_family,
    abel_residual,
    drift,
    ep_ode,
    ep_residual,
    ep_system,
    ermakov_invariant,
    first_integral,
    fundamental_pair,
    integrate,
    lewis_invariant,
    lorentz_adiabatic,
    oscillator_system,
    pinney_solution,
    polar_from_cartesian,
    product_solution,
    radial_ep_residual,
    rho_substitution,
    simulate_cartesian,
    simulate_polar,
    structure_constants,
    surviving_symmetry,
    symmetry_residual,
    third_order_residual,
    time_function,
    transform_trajectory,
)
from epwb.cli import main
from epwb.expressions import Binary, Const, TimeFunction, var
from epwb.pinney import LewisState
from epwb.symmetry import (
    autonomous_family,
    basis_family,
    default_samples,
    lie_bracket,
)
from tests.conftest import PHI_CATALOG, POWER_LAW_G, grid


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def test_criterion_1_pinney_superposition():
    with criterion(1, "Pinney superposition, 50 random forms, squared Wronskian"):
        started = time.monotonic()
        rng = np.random.default_rng(2024)
        for phi_text in ("1", "4", "1+0.5*sin(t)"):
            phi = time_function(phi_text)
            basis = fundamental_pair(phi, (0.0, 10.0))
            ts = grid(0.0, 10.0, 101)
            for _ in range(50):
                A = rng.uniform(0.5, 3.0)
                C = rng.uniform(0.5, 3.0)
                B = math.sqrt(A * C) * rng.uniform(-0.9, 0.9)
                x, h2 = pinney_solution(basis, A, B, C)
                cfg = EPConfig(phi, time_function(repr(h2)))
                assert ep_residual(cfg, x, ts) <= 1e-6

        # discriminator: a W = 2 basis exposes the linear-in-W reading
        basis2 = basis_with_ics(
            time_function("1"), (0.0, 10.0), (1.0, 0.0), (0.0, 2.0)
        )
        x_bad, h2_bad = pinney_solution(basis2, 1.0, 0.0, 1.0, wronskian_power=1)
        bad_cfg = EPConfig(time_function("1"), time_function(repr(h2_bad)))
        assert ep_residual(bad_cfg, x_bad, grid(0.0, 10.0, 101)) >= 0.1
        x_ok, h2_ok = pinney_solution(basis2, 1.0, 0.0, 1.0)
        ok_cfg = EPConfig(time_function("1"), time_function(repr(h2_ok)))
        assert ep_residual(ok_cfg, x_ok, grid(0.0, 10.0, 101)) <= 1e-6

        assert time.monotonic() - started < 10.0


def test_criterion_2_invariant_drifts():
    with criterion(2, "Ermakov/Lewis drift <= 1e-6 on catalog, Lorentz breaks"):
        ts = grid(0.0, 20.0, 201)
        for phi_text in PHI_CATALOG:
            phi = time_function(phi_text)
            h2 = 2.0
            x = integrate(
                ep_system(EPConfig(phi, time_function(repr(h2)))),
                (1.0, 0.0),
                (0.0, 20.0),
            )
            y = integrate(oscillator_system(phi), (1.0, 0.0), (0.0, 20.0))
            ermakov = [ermakov_invariant(x, y, h2, t) for t in ts]
            assert drift(ermakov) <= 1e-6, f"ermakov drift for phi={phi_text}"

            rho = integrate(
                ep_system(EPConfig(phi, time_function("1"))), (1.0, 0.0), (0.0, 20.0)
            )
            q = integrate(oscillator_system(phi), (0.5, 1.0), (0.0, 20.0))
            lewis = []
            for t in ts:
                qv, pv = q.sample(t)
                rv, rd = rho.sample(t)
                lewis.append(lewis_invariant(LewisState(qv, pv, rv, rd)))
            assert drift(lewis) <= 1e-6, f"lewis drift for phi={phi_text}"

        omega2 = time_function("1+0.5*sin(3*t)")
        q = integrate(oscillator_system(omega2), (1.0, 0.0), (0.0, 20.0))
        lorentz = [
            lorentz_adiabatic(math.sqrt(omega2.eval(t)), *q.sample(t)) for t in ts
        ]
        assert drift(lorentz) >= 1e-2


def test_criterion_3_third_order_bridge():
    with criterion(3, "third-order products, integral, rho bridge, base rejected"):
        cfg = ThirdOrderConfig(time_function("2*(1+0.5*sin(t))"))
        basis = fundamental_pair(cfg.base_phi(), (0.0, 10.0))
        ts = grid(0.0, 10.0, 101)
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.uniform(0.5, 2.0)
            C = rng.uniform(0.5, 2.0)
            B = math.sqrt(A * C) * rng.uniform(-0.9, 0.9)
            w = product_solution(basis, A, B, C)
            assert third_order_residual(cfg, w, ts) <= 1e-6
            integral = [first_integral(cfg, w, t) for t in ts]
            assert drift(integral) <= 1e-7
            rho, res = rho_substitution(cfg, w, ts)
            assert res <= 1e-6

        cfg2 = ThirdOrderConfig(time_function("2"))
        unhalved = fundamental_pair(cfg2.a, (0.0, 6.0))
        w_bad = product_solution(unhalved, 1.0, 0.0, 0.0)
        assert third_order_residual(cfg2, w_bad, grid(0.0, 6.0, 61)) >= 0.5


def test_criterion_4_symmetry_tables():
    with criterion(4, "six symmetries, structure constants, bracket reading"):
        f = 1.0
        phi = time_function("1")
        auto = autonomous_family(f)
        ode = SecondOrderODE.from_ep(phi, time_function("1"))
        samples = default_samples((0.0, 6.0))
        for sym in auto:
            assert symmetry_residual(sym, ode, samples) <= 1e-6

        varying = time_function("1+0.5*sin(t)")
        basis = fundamental_pair(varying, (0.0, 10.0))
        fam = basis_family(basis)
        ode_v = SecondOrderODE.from_ep(varying, time_function("1"))
        samples_v = default_samples((0.0, 10.0))
        for sym in fam:
            assert symmetry_residual(sym, ode_v, samples_v) <= 1e-6

        pts = [(t, x) for t in np.linspace(0.3, 5.7, 7) for x in (0.7, 1.1, 1.9)]
        c, fit = structure_constants(auto, pts)
        assert fit <= 1e-6
        assert np.allclose(c[0, 1], [0, 0, 2 * f], atol=1e-6)
        assert np.allclose(c[0, 2], [0, -2 * f, 0], atol=1e-6)
        assert np.allclose(c[1, 2], [-2 * f, 0, 0], atol=1e-6)

        basis1 = fundamental_pair(phi, (0.0, 10.0))
        w = basis1.wronskian0
        pts10 = [(t, x) for t in np.linspace(0.3, 9.7, 7) for x in (0.7, 1.1, 1.9)]
        cb, fitb = structure_constants(basis_family(basis1), pts10)
        assert fitb <= 1e-6
        assert np.allclose(cb[0, 1], [w, 0, 0], atol=1e-6)
        assert np.allclose(cb[0, 2], [0, 2 * w, 0], atol=1e-6)
        assert np.allclose(cb[1, 2], [0, 0, w], atol=1e-6)

        # the bracket oracle: [G2, G3] is -2F G1, not -2F G3
        br = lie_bracket(auto[1], auto[2])
        worst_g1 = 0.0
        worst_g3 = 0.0
        for t, x in pts:
            got = np.asarray(br.components(t, x))
            as_g1 = -2 * f * np.asarray(auto[0].components(t, x))
            as_g3 = -2 * f * np.asarray(auto[2].components(t, x))
            worst_g1 = max(worst_g1, float(np.max(np.abs(got - as_g1))))
            worst_g3 = max(worst_g3, float(np.max(np.abs(got - as_g3))))
        assert worst_g1 <= 1e-10
        assert worst_g3 >= 0.1


def test_criterion_5_compatibility_and_surviving_symmetry():
    with criterion(5, "Gamma_s on catalog, exact exponential form, perturbation"):
        catalog = (
            ("exp(4*t)", (0.0, 2.0)),
            ("(1+t)^4", (0.0, 3.0)),
            ("exp(t)", (0.0, 3.0)),
            ("(2+t)^3", (0.0, 3.0)),
        )
        for g_text, interval in catalog:
            for m in (0.0, 1.0, 2.0):
                fam = compatible_family(time_function(g_text), 1.0, m, interval)
                sym = surviving_symmetry(fam)
                res = symmetry_residual(sym, ep_ode(fam), default_samples(interval))
                assert res <= 1e-6, f"Gamma_s residual for G={g_text}, M={m}"

        fam_exp = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
        sym_exp = surviving_symmetry(fam_exp)
        for t, x in ((0.3, 0.8), (1.1, 1.7)):
            tau, xi = sym_exp.components(t, x)
            assert tau == pytest.approx(1.0, abs=1e-12)
            assert xi == pytest.approx(x, abs=1e-12)
        assert fam_exp.phi.eval(1.0) == pytest.approx(1.0, abs=1e-12)

        # perturbation control on the catalog entries where it is valid
        # (non-constant a); the ledger records why exponential G is immune
        for g_text, interval in POWER_LAW_G:
            fam = compatible_family(time_function(g_text), 1.0, 1.0, interval)
            sym = surviving_symmetry(fam)
            shifted = TimeFunction(Binary("+", fam.phi.expr, Const(0.1)))
            ode = SecondOrderODE.from_ep(shifted, fam.g)
            assert symmetry_residual(sym, ode, default_samples(interval)) > 1e-3

        # exponential G: constant shift is absorbed, a time ramp is not
        shifted = TimeFunction(Binary("+", fam_exp.phi.expr, Const(0.1)))
        ode = SecondOrderODE.from_ep(shifted, fam_exp.g)
        assert symmetry_residual(sym_exp, ode, default_samples((0.0, 2.0))) <= 1e-8
        ramp = TimeFunction(
            Binary("+", fam_exp.phi.expr, Binary("*", Const(0.1), var("t")))
        )
        ode_ramp = SecondOrderODE.from_ep(ramp, fam_exp.g)
        assert symmetry_residual(sym_exp, ode_ramp, default_samples((0.0, 2.0))) > 1e-3


def test_criterion_6_reduction_pipeline():
    with criterion(6, "autonomous reduction for three G, sigma control, fixed point"):
        cases = (
            ("exp(4*t)", (0.0, 2.0)),
            ("(1+t)^4", (0.0, 3.0)),
            ("(2+t)^3", (0.0, 3.0)),
        )
        for g_text, interval in cases:
            fam = compatible_family(time_function(g_text), 1.0, 1.0, interval)
            chart = canonical_chart(fam)
            traj = integrate(
                ep_system(EPConfig(fam.phi, fam.g)), (1.0, 0.0), interval
            )
            orbit = transform_trajectory(chart, traj, n=200)
            assert autonomous_residual(orbit, fam.omega) <= 1e-6, f"pipeline for G={g_text}"

        fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
        chart_bad = canonical_chart(fam, sigma=0.75)
        traj = integrate(ep_system(EPConfig(fam.phi, fam.g)), (1.0, 0.0), (0.0, 2.0))
        orbit_bad = transform_trajectory(chart_bad, traj, n=200)
        assert autonomous_residual(orbit_bad, fam.omega) >= 0.1

        x0 = 8.0 ** 0.25 / 2.0
        ray = integrate(ep_system(EPConfig(fam.phi, fam.g)), (x0, x0), (0.0, 2.0))
        fixed = transform_trajectory(canonical_chart(fam), ray, n=100)
        assert np.max(np.abs(fixed.X - 8.0 ** 0.25)) <= 1e-10


def test_criterion_7_abel_relation():
    with criterion(7, "phase-plane relation: corrected powers pass, literal fails"):
        fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
        traj = integrate(ep_system(EPConfig(fam.phi, fam.g)), (1.0, 0.0), (0.0, 2.0))
        orbit = transform_trajectory(canonical_chart(fam), traj, n=200)
        corrected = abel_residual(orbit, fam.omega)
        assert corrected.residual <= 1e-5
        assert corrected.samples_used > 0
        literal = abel_residual(orbit, fam.omega, literal=True)
        assert literal.residual >= 0.1


def test_criterion_8_central_field():
    with criterion(8, "radial identity, momentum integral, cross-representation"):
        phi = time_function("1+0.5*sin(t)")
        for k_text in ("0", "0.1"):
            cfg = CentralFieldConfig(phi, time_function(k_text))
            init = PolarState(r=1.2, rdot=0.3, theta=0.0, thetadot=0.8)
            traj = simulate_polar(cfg, init, (0.0, 20.0))
            assert radial_ep_residual(traj, cfg) <= 1e-6, f"radial for k={k_text}"
            assert angular_momentum_check(traj, cfg) <= 1e-7

        cfg0 = CentralFieldConfig(phi, time_function("0"))
        init = PolarState(r=1.1, rdot=0.2, theta=0.5, thetadot=0.9)
        polar = simulate_polar(cfg0, init, (0.0, 20.0))
        cart = simulate_cartesian(cfg0, init, (0.0, 20.0))
        worst = 0.0
        for t in grid(0.0, 20.0, 201):
            r_polar = polar.sample(t)[0]
            r_cart = polar_from_cartesian(cart.sample(t)).r
            worst = max(worst, abs(r_polar - r_cart))
        assert worst <= 1e-6


def test_criterion_9_audit_ledger(capsys, tmp_path):
    with criterion(9, "audit ledger: five entries, all resolved, deterministic"):
        report = audit_all()
        assert len(report["entries"]) == 5
        assert report["all_resolved"] is True
        assert all(e["resolved"] for e in report["entries"])
        # the ledger as `epwb audit-all` prints it and as it writes it with --out
        assert main(["audit-all"]) == 0
        first = capsys.readouterr().out
        assert main(["audit-all", "--out", str(tmp_path / "ledger.json")]) == 0
        second = (tmp_path / "ledger.json").read_text()
        assert first == second
        parsed = json.loads(first)
        assert parsed == report
        assert [e["id"] for e in parsed["entries"]] == [
            "wronskian-exponent",
            "product-base-coefficient",
            "bracket-gamma23",
            "chart-time-scale",
            "abel-powers",
        ]
