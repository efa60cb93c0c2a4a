import math

import numpy as np
import pytest

from epwb import (
    DegenerateBasisError,
    basis_with_ics,
    fundamental_pair,
    oscillator_system,
    residual,
    time_function,
    wronskian,
)
from epwb import ode, oscillator
from epwb.oscillator import QuadraticFormCurve
from tests.conftest import PHI_CATALOG, grid


class TestFundamentalPair:
    def test_unit_frequency_gives_cos_sin(self, basis_phi1):
        for t in grid(0.0, 20.0, 101):
            assert basis_phi1.u.sample(t)[0] == pytest.approx(math.cos(t), abs=1e-8)
            assert basis_phi1.v.sample(t)[0] == pytest.approx(math.sin(t), abs=1e-8)
        assert basis_phi1.wronskian0 == 1.0

    def test_free_particle_basis(self):
        basis = fundamental_pair(time_function("0"), (0.0, 5.0))
        for t in grid(0.0, 5.0, 21):
            assert basis.u.sample(t)[0] == pytest.approx(1.0, abs=1e-12)
            assert basis.v.sample(t)[0] == pytest.approx(t, abs=1e-12)

    def test_frequency_two(self):
        basis = fundamental_pair(time_function("4"), (0.0, 10.0))
        for t in grid(0.0, 10.0, 51):
            assert basis.u.sample(t)[0] == pytest.approx(math.cos(2 * t), abs=1e-8)
            assert basis.v.sample(t)[0] == pytest.approx(0.5 * math.sin(2 * t), abs=1e-8)


class TestWronskian:
    def test_scaled_ics_double_it(self, phi_one):
        basis = basis_with_ics(phi_one, (0.0, 10.0), (1.0, 0.0), (0.0, 2.0))
        for t in grid(0.0, 10.0, 101):
            assert wronskian(basis, t) == pytest.approx(2.0, abs=2e-8)

    @pytest.mark.parametrize("text", PHI_CATALOG)
    def test_constant_along_orbit(self, text):
        basis = fundamental_pair(time_function(text), (0.0, 20.0))
        w0 = basis.wronskian0
        worst = max(abs(wronskian(basis, t) - w0) for t in grid(0.0, 20.0, 101))
        assert worst / abs(w0) <= 1e-8

    def test_grid_equals_per_point_calls(self, basis_sin):
        ts = grid(0.0, 20.0, 301)
        ws = wronskian(basis_sin, ts)
        assert ws.shape == ts.shape
        singles = [wronskian(basis_sin, t) for t in ts]
        assert all(type(w) is float for w in singles)
        assert np.array_equal(ws, singles)

    def test_one_read_per_call(self, basis_sin, monkeypatch):
        reads = []
        original = ode.Trajectory.sample
        monkeypatch.setattr(
            ode.Trajectory, "sample", lambda self, t: reads.append(self) or original(self, t)
        )
        wronskian(basis_sin, 1.5)
        wronskian(basis_sin, grid(0.0, 20.0, 11))
        assert reads == [basis_sin.pair, basis_sin.pair]

    def test_degenerate_ics_rejected(self, phi_one):
        with pytest.raises(DegenerateBasisError):
            basis_with_ics(phi_one, (0.0, 1.0), (1.0, 0.0), (2.0, 0.0))


class TestBasisChange:
    def test_any_solution_is_a_combination(self, phi_sin):
        basis = fundamental_pair(phi_sin, (0.0, 20.0))
        other = basis_with_ics(phi_sin, (0.0, 20.0), (0.7, -0.3), (0.4, 1.1))
        ts = grid(0.5, 19.5, 50)
        design = np.array([[basis.u.sample(t)[0], basis.v.sample(t)[0]] for t in ts])
        target = np.array([other.u.sample(t)[0] for t in ts])
        coeff, *_ = np.linalg.lstsq(design, target, rcond=None)
        fit = design @ coeff
        assert np.max(np.abs(fit - target)) <= 1e-7
        # the ICs pin the coefficients exactly: z = 0.7 u - 0.3 v
        assert coeff == pytest.approx([0.7, -0.3], abs=1e-7)


class TestBasisCurve:
    def test_rejects_unknown_component(self, basis_phi1):
        with pytest.raises(ValueError):
            basis_phi1.curve("w")

    def test_high_order_matches_closed_form(self, basis_phi1):
        # u = cos t, so u^(k)(t) cycles through -sin, -cos, sin, cos
        cu = basis_phi1.curve("u")
        t = 1.3
        z = cu.jet([t], 4)[:, 0]
        assert z[2] == pytest.approx(-math.cos(t), abs=1e-8)
        assert z[3] == pytest.approx(math.sin(t), abs=1e-8)
        assert z[4] == pytest.approx(math.cos(t), abs=1e-8)

    def test_recursion_with_varying_coefficient(self, phi_sin):
        # zddot = -(1 + 0.5 sin t) z, so order 3 = -(phi' z + phi z')
        basis = fundamental_pair(phi_sin, (0.0, 20.0))
        cu = basis.curve("u")
        t = 2.1
        phi0 = phi_sin.eval(t)
        phi1 = phi_sin.eval(t, 1)
        z0, z1, z2, z3 = cu.jet([t], 3)[:, 0]
        assert z2 == pytest.approx(-phi0 * z0, rel=1e-10)
        assert z3 == pytest.approx(-(phi1 * z0 + phi0 * z1), rel=1e-9)


class TestQuadraticFormCurve:
    def test_matches_closed_form(self, basis_phi1):
        # A=4, B=0, C=1 over (cos, sin): w = 4cos^2 + sin^2 = 2.5 + 1.5 cos 2t
        w = QuadraticFormCurve(basis_phi1, 4.0, 0.0, 1.0)
        for t in (0.3, 1.1, 2.9):
            w0, w1, w2, w3 = w.jet([t], 3)[:, 0]
            assert w0 == pytest.approx(2.5 + 1.5 * math.cos(2 * t), abs=1e-8)
            assert w1 == pytest.approx(-3.0 * math.sin(2 * t), abs=1e-8)
            assert w2 == pytest.approx(-6.0 * math.cos(2 * t), abs=1e-8)
            assert w3 == pytest.approx(12.0 * math.sin(2 * t), abs=1e-7)

    def test_cross_term(self, basis_phi1):
        # A=C=0, B=1/2: w = uv = cos t sin t = 0.5 sin 2t
        w = QuadraticFormCurve(basis_phi1, 0.0, 0.5, 0.0)
        for t in (0.4, 1.7):
            w0, w1 = w.jet([t], 1)[:, 0]
            assert w0 == pytest.approx(0.5 * math.sin(2 * t), abs=1e-8)
            assert w1 == pytest.approx(math.cos(2 * t), abs=1e-8)


class TestResidualInvariant:
    @pytest.mark.parametrize("text", PHI_CATALOG)
    def test_basis_satisfies_equation(self, text):
        phi = time_function(text)
        basis = fundamental_pair(phi, (0.0, 20.0))
        ts = grid(0.0, 20.0, 101)
        worst = 0.0
        for tr in (basis.u, basis.v):
            z, zd, zdd = tr.jet(ts, 2)
            worst = max(worst, np.max(np.abs(zdd + phi.jet(ts, 0)[0] * z)))
        assert worst <= 1e-7


class TestBasisPair:
    def test_one_integration_per_basis(self, phi_sin, monkeypatch):
        calls = []
        original = oscillator.integrate
        monkeypatch.setattr(
            oscillator, "integrate", lambda *a, **k: calls.append(a[0]) or original(*a, **k)
        )
        basis = basis_with_ics(phi_sin, (0.0, 5.0), (0.7, -0.3), (0.4, 1.1))
        assert len(calls) == 1 and calls[0].dim == 4
        fields = calls[0].fields
        assert fields[1].left is fields[3].left  # -phi is one node, computed once per stage
        assert basis.pair.dim == 4

    def test_solutions_are_views_on_the_pair(self, basis_sin):
        for tr, cols in ((basis_sin.u, slice(0, 2)), (basis_sin.v, slice(2, 4))):
            assert tr.dim == 2
            assert tr.system.names == ("x", "v")
            assert np.shares_memory(tr.states, basis_sin.pair.states)
            assert np.array_equal(tr.states, basis_sin.pair.states[:, cols])
            assert np.array_equal(tr.times, basis_sin.pair.times)
            ts = grid(0.0, 20.0, 51)
            assert np.array_equal(tr.sample(ts), basis_sin.pair.sample(ts)[:, cols])

    @pytest.mark.parametrize("text", PHI_CATALOG)
    def test_each_solution_solves_the_oscillator(self, text):
        phi = time_function(text)
        basis = fundamental_pair(phi, (0.0, 20.0))
        system = oscillator_system(time_function(text))
        for tr in (basis.u, basis.v):
            assert residual(system, tr, grid(0.0, 20.0, 101)) <= 1e-9
