import math

import numpy as np
import pytest

from epwb import (
    DomainError,
    EPConfig,
    IntegrationSettings,
    LewisState,
    SqrtCurve,
    autonomous_energy,
    drift,
    ep_residual,
    ep_system,
    ermakov_invariant,
    fundamental_pair,
    integrate,
    lewis_invariant,
    lorentz_adiabatic,
    oscillator_system,
    pinney_solution,
    time_function,
)
from tests.conftest import PHI_CATALOG, grid


def const_cfg(phi_text: str, h2: float) -> EPConfig:
    return EPConfig(time_function(phi_text), time_function(repr(h2)))


class TestPinneySolution:
    def test_equilibrium_combination(self, basis_phi1):
        x, h2 = pinney_solution(basis_phi1, 1.0, 0.0, 1.0)
        assert h2 == 1.0
        for t in grid(0.0, 10.0, 41):
            assert x.jet([t], 0)[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_elliptic_combination(self, basis_phi1):
        x, h2 = pinney_solution(basis_phi1, 4.0, 0.0, 1.0)
        assert h2 == 4.0
        x0, x1, x2 = x.jet([0.0], 2)[:, 0]
        assert x0 == pytest.approx(2.0, abs=1e-9)
        assert x1 == pytest.approx(0.0, abs=1e-9)
        # from the equation itself: x'' = -2 + 4/8 at t=0
        assert x2 == pytest.approx(-1.5, abs=1e-8)
        cfg = const_cfg("1", h2)
        assert ep_residual(cfg, x, grid(0.0, 10.0)) <= 1e-6

    def test_wronskian_enters_squared(self, phi_one):
        # basis (cos t, 2 sin t) has W = 2; only p = 2 closes the equation
        from epwb import basis_with_ics

        basis = basis_with_ics(phi_one, (0.0, 10.0), (1.0, 0.0), (0.0, 2.0))
        x_good, h2_good = pinney_solution(basis, 1.0, 0.0, 1.0, wronskian_power=2)
        assert h2_good == 4.0
        assert ep_residual(const_cfg("1", h2_good), x_good, grid(0.0, 10.0)) <= 1e-6

        x_bad, h2_bad = pinney_solution(basis, 1.0, 0.0, 1.0, wronskian_power=1)
        assert h2_bad == 2.0
        # defect peaks at 2/x^3 = 0.25 where x = 2
        assert ep_residual(const_cfg("1", h2_bad), x_bad, grid(0.0, 10.0)) >= 0.1

    @pytest.mark.parametrize("phi_text", ("1", "4", "1+0.5*sin(t)"))
    def test_random_combinations_solve_the_equation(self, phi_text):
        rng = np.random.default_rng(42)
        basis = fundamental_pair(time_function(phi_text), (0.0, 10.0))
        for _ in range(10):
            A = rng.uniform(0.5, 3.0)
            C = rng.uniform(0.5, 3.0)
            B = math.sqrt(A * C) * rng.uniform(-0.9, 0.9)
            x, h2 = pinney_solution(basis, A, B, C)
            cfg = const_cfg(phi_text, h2)
            assert ep_residual(cfg, x, grid(0.0, 10.0, 101)) <= 1e-6

    def test_indefinite_form_rejected(self, basis_phi1):
        with pytest.raises(ValueError):
            pinney_solution(basis_phi1, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            pinney_solution(basis_phi1, 1.0, 1.0, 1.0)


class TestEpResidual:
    def test_wrong_forcing_detected(self):
        cfg4 = const_cfg("1", 4.0)
        tr = integrate(ep_system(cfg4), (2.0, 0.0), (0.0, 10.0))
        assert ep_residual(const_cfg("1", 2.0), tr, grid(0.0, 10.0)) >= 0.2

    def test_empty_grid(self, basis_phi1):
        x, h2 = pinney_solution(basis_phi1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ep_residual(const_cfg("1", h2), x, [])

    def test_guard_threshold(self):
        # x = t starts on the axis, below the floor X_MIN
        with pytest.raises(DomainError, match=r"^x=0\.0 below guard threshold 1e-06 at t=0\.0$"):
            ep_residual(const_cfg("1", 1.0), time_function("t"), grid(0.0, 1.0, 5))

    def test_sqrt_curve_rejects_nonpositive(self):
        curve = SqrtCurve(time_function("cos(t)"))
        assert curve.jet([0.0], 0)[0, 0] == 1.0
        with pytest.raises(DomainError):
            curve.jet([2.0], 0)
        with pytest.raises(DomainError):
            curve.jet([math.pi], 0)


class TestEpSystem:
    @pytest.mark.parametrize(
        "x,message",
        [
            (1e300, r"overflow in '\^' of 1e\+300 and 3\.0"),
            (np.float64(1e300), r"overflow in '\^' of \S*1e\+300\S* and 3\.0"),
            (1e-120, "division by zero"),
        ],
        ids=["float", "float64", "tiny"],
    )
    def test_inverse_cube_out_of_range_raises(self, x, message):
        # the cube overflows (or underflows to 0); g/x^3 must not turn into 0 or inf
        rhs = ep_system(const_cfg("1", 1.0)).rhs
        with pytest.raises(DomainError, match=message):
            rhs(0.0, (x, 0.0))

    def test_finite_state_gives_float_tuple(self):
        slope = ep_system(const_cfg("1", 4.0)).rhs(0.0, (2.0, 0.5))
        assert slope == (0.5, -2.0 + 0.5)
        assert all(type(v) is float for v in slope)


class TestErmakovInvariant:
    def test_equilibrium_against_sine(self, basis_phi1):
        x, h2 = pinney_solution(basis_phi1, 1.0, 0.0, 1.0)
        for t in grid(0.0, 10.0, 21):
            assert ermakov_invariant(x, basis_phi1.v, h2, t) == pytest.approx(
                0.5, abs=1e-8
            )

    def test_equilibrium_against_cosine(self, basis_phi1):
        x, h2 = pinney_solution(basis_phi1, 1.0, 0.0, 1.0)
        for t in grid(0.0, 10.0, 21):
            assert ermakov_invariant(x, basis_phi1.u, h2, t) == pytest.approx(
                0.5, abs=1e-8
            )

    def test_elliptic_level(self, basis_phi1):
        x, h2 = pinney_solution(basis_phi1, 4.0, 0.0, 1.0)
        vals = [
            ermakov_invariant(x, basis_phi1.v, h2, t) for t in grid(0.0, 20.0, 201)
        ]
        assert vals[0] == pytest.approx(2.0, abs=1e-8)
        assert drift(vals) <= 1e-7

    def test_conserved_for_integrated_pair(self, phi_sin):
        h2 = 2.25
        cfg = EPConfig(phi_sin, time_function(repr(h2)))
        x = integrate(ep_system(cfg), (1.3, 0.4), (0.0, 20.0))
        basis = fundamental_pair(phi_sin, (0.0, 20.0))
        vals = [ermakov_invariant(x, basis.v, h2, t) for t in grid(0.0, 20.0, 201)]
        assert drift(vals) <= 1e-6

    def test_grid_equals_per_point_calls(self, phi_sin):
        h2 = 2.25
        x = integrate(ep_system(const_cfg("1+0.5*sin(t)", h2)), (1.3, 0.4), (0.0, 20.0))
        y = integrate(oscillator_system(phi_sin), (1.0, 0.0), (0.0, 20.0))
        ts = grid(0.0, 20.0, 201)
        values = ermakov_invariant(x, y, h2, ts)
        assert values.shape == ts.shape
        singles = [ermakov_invariant(x, y, h2, t) for t in ts]
        assert all(type(v) is float for v in singles)
        assert np.array_equal(values, singles)

    def test_grid_names_the_first_bad_time(self, basis_phi1):
        # v = sin t vanishes at t = 0 and pi; x = v cannot pair with u there
        with pytest.raises(DomainError, match=r"^x\(t\)=0 at t=0.0$"):
            ermakov_invariant(basis_phi1.v, basis_phi1.u, 1.0, [0.0, 0.5])
        # x = exp(400 t), y = 1: (x'y - xy')^2 = (400 x)^2 overflows from about t = 0.76
        x, y = time_function("exp(400*t)"), time_function("1")
        assert math.isfinite(ermakov_invariant(x, y, 1.0, 0.5))
        with pytest.raises(DomainError, match="^Ermakov invariant is not finite at t=1.0$"):
            ermakov_invariant(x, y, 1.0, [0.5, 1.0, 1.2])

    def test_zero_x_rejected(self, basis_phi1):
        with pytest.raises(DomainError):
            ermakov_invariant(basis_phi1.v, basis_phi1.u, 1.0, 0.0)

    def test_overflowing_cross_term_rejected(self):
        # x = 1e200 t and y = 1 + t give x'y - xy' = 1e200, whose square overflows
        x, y = time_function("1e200*t"), time_function("1+t")
        with pytest.raises(DomainError, match="not finite"):
            ermakov_invariant(x, y, 1.0, 0.5)


class TestLewisInvariant:
    def test_static_envelope(self):
        for t in grid(0.0, 6.0, 13):
            s = LewisState(q=math.sin(t), p=math.cos(t), rho=1.0, rho_dot=0.0)
            assert lewis_invariant(s) == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_scales_quadratically(self):
        for t in grid(0.0, 6.0, 13):
            s = LewisState(
                q=2 * math.sin(t), p=2 * math.cos(t), rho=1.0, rho_dot=0.0
            )
            assert lewis_invariant(s) == pytest.approx(2.0, abs=1e-12)

    def test_zero_rho_rejected(self):
        with pytest.raises(DomainError):
            lewis_invariant(LewisState(1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("phi_text", PHI_CATALOG)
    def test_conserved_with_pinney_envelope(self, phi_text):
        phi = time_function(phi_text)
        cfg = EPConfig(phi, time_function("1"))
        rho = integrate(ep_system(cfg), (1.0, 0.0), (0.0, 20.0))
        q = integrate(oscillator_system(phi), (0.5, 1.0), (0.0, 20.0))
        vals = []
        for t in grid(0.0, 20.0, 201):
            rv, rd = rho.sample(t)
            qv, pv = q.sample(t)
            vals.append(lewis_invariant(LewisState(qv, pv, rv, rd)))
        assert drift(vals) <= 1e-6

    def test_varying_frequency_example(self, phi_sin):
        cfg = EPConfig(phi_sin, time_function("1"))
        rho = integrate(ep_system(cfg), (1.0, 0.0), (0.0, 20.0))
        basis = fundamental_pair(phi_sin, (0.0, 20.0))
        vals = []
        for t in grid(0.0, 20.0, 201):
            rv, rd = rho.sample(t)
            qv, pv = basis.v.sample(t)
            vals.append(lewis_invariant(LewisState(qv, pv, rv, rd)))
        assert drift(vals) <= 1e-7


class TestLorentzAdiabatic:
    def test_constant_frequency_is_exact(self):
        for t in grid(0.0, 6.0, 13):
            val = lorentz_adiabatic(1.0, math.sin(t), math.cos(t))
            assert val == pytest.approx(0.5, abs=1e-12)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(DomainError):
            lorentz_adiabatic(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            lorentz_adiabatic(-1.0, 1.0, 0.0)

    def test_fast_modulation_breaks_it_but_not_lewis(self):
        omega2 = time_function("1+0.5*sin(3*t)")
        q = integrate(oscillator_system(omega2), (1.0, 0.0), (0.0, 20.0))
        rho = integrate(
            ep_system(EPConfig(omega2, time_function("1"))), (1.0, 0.0), (0.0, 20.0)
        )
        lor, lew = [], []
        for t in grid(0.0, 20.0, 201):
            qv, pv = q.sample(t)
            rv, rd = rho.sample(t)
            lor.append(lorentz_adiabatic(math.sqrt(omega2.eval(t)), qv, pv))
            lew.append(lewis_invariant(LewisState(qv, pv, rv, rd)))
        assert drift(lor) >= 1e-2
        assert drift(lew) <= 1e-7

    def test_slow_modulation_drifts_far_less(self):
        eps = 0.01
        span = 2 * math.pi / eps
        omega2 = time_function(f"1+0.5*sin({eps}*t)")
        s = IntegrationSettings(rtol=1e-8, atol=1e-10)
        q = integrate(oscillator_system(omega2), (1.0, 0.0), (0.0, span), s)
        slow = []
        for t in grid(0.0, span, 401):
            qv, pv = q.sample(t)
            slow.append(lorentz_adiabatic(math.sqrt(omega2.eval(t)), qv, pv))
        assert drift(slow) <= 0.597 / 10.0


class TestInvariantsOnGrids:
    ts = np.linspace(0.0, 6.0, 13)
    q, p = np.sin(ts), np.cos(ts)
    rho, rho_dot = 1.0 + 0.1 * ts, np.full_like(ts, 0.1)
    omega = 1.0 + 0.2 * ts

    def test_a_grid_gives_each_scalar_value(self):
        rows = zip(self.q.tolist(), self.p.tolist(), self.rho.tolist(), self.rho_dot.tolist())
        lewis = [lewis_invariant(LewisState(*row)) for row in rows]
        assert lewis_invariant(LewisState(self.q, self.p, self.rho, self.rho_dot)).tolist() == lewis
        rows = zip(self.omega.tolist(), self.q.tolist(), self.p.tolist())
        lorentz = [lorentz_adiabatic(*row) for row in rows]
        assert lorentz_adiabatic(self.omega, self.q, self.p).tolist() == lorentz
        assert type(lorentz[0]) is float

    def test_lewis_scalar_calls_equal_the_grid_bit_for_bit(self):
        # the phi = 1 row of scripts/invariant_drift_catalog.py, whose point 194
        # came out one ulp apart while a float squared through pow
        phi, interval = time_function("1"), (0.0, 20.0)
        ts = 20.0 * np.arange(201) / 200
        q = integrate(oscillator_system(phi), (0.5, 1.0), interval).sample(ts)
        rho = integrate(ep_system(EPConfig(phi, time_function("1"))), (1.0, 0.0), interval).sample(ts)
        fields = np.concatenate([q, rho], axis=1)
        grid = lewis_invariant(LewisState(*fields.T)).tolist()
        assert [lewis_invariant(LewisState(*row)) for row in fields.tolist()] == grid

    def test_zero_rho_on_a_grid_rejected(self):
        rho = self.rho.copy()
        rho[[4, 7]] = 0.0
        with pytest.raises(DomainError, match="^rho = 0$"):
            lewis_invariant(LewisState(self.q, self.p, rho, self.rho_dot))

    @pytest.mark.parametrize(
        "bad, named", [((-2.0, -3.0), "-2.0"), ((0.0, -1.0), "0.0"), ((math.nan, -1.0), "nan")]
    )
    def test_first_bad_omega_on_a_grid_is_named(self, bad, named):
        omega = self.omega.copy()
        omega[[3, 9]] = bad
        with pytest.raises(DomainError, match=f"^omega must be positive, got {named}$"):
            lorentz_adiabatic(omega, self.q, self.p)

    def test_nan_omega_raises(self):
        with pytest.raises(DomainError, match="^omega must be positive, got nan$"):
            lorentz_adiabatic(math.nan, 1.0, 0.0)


class TestAutonomousEnergy:
    def test_conserved_for_constant_coefficients(self):
        cfg = const_cfg("1", 4.0)
        tr = integrate(ep_system(cfg), (2.0, 0.0), (0.0, 20.0))
        vals = []
        for t in grid(0.0, 20.0, 201):
            x, v = tr.sample(t)
            vals.append(autonomous_energy(1.0, 4.0, x, v))
        assert drift(vals) <= 1e-8


class TestDriftAndAudit:
    def test_constant_series_has_zero_drift(self):
        assert drift([3.0, 3.0, 3.0]) == 0.0

    def test_small_mean_uses_absolute_scale(self):
        assert drift([0.0, 1e-3]) == pytest.approx(1e-3)

    def test_empty_series(self):
        with pytest.raises(ValueError):
            drift([])

    def test_one_value_has_no_spread(self):
        with pytest.raises(ValueError, match="at least two values"):
            drift([1.0])

    def test_overflowing_series_raises(self):
        # the spread 2e308 is beyond float range
        with pytest.raises(DomainError, match="non-finite series"):
            drift([1e308, -1e308])


@pytest.mark.parametrize("kind", ["trajectory", "time_function", "quadratic_form", "sqrt"])
def test_every_curve_reads_a_scalar_as_the_one_point_grid(kind, basis_sin, phi_sin):
    x, h2 = pinney_solution(basis_sin, 1.0, 0.3, 2.0)
    curve = {
        "trajectory": integrate(ep_system(const_cfg("1+0.5*sin(t)", h2)), (1.0, 0.0), (0.0, 20.0)),
        "time_function": phi_sin,
        "quadratic_form": x.base,
        "sqrt": x,
    }[kind]
    top = curve.dim if kind == "trajectory" else 3
    for t in (0.0, 0.37, 11.5, 20.0):  # both ends and between
        for k in range(top + 1):
            jet = curve.jet(t, k)
            assert jet.shape == (k + 1, 1)
            assert np.array_equal(jet, curve.jet([t], k))
