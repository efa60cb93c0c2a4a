import math

import numpy as np
import pytest

from epwb import (
    COMPLETED,
    GUARD_STOP,
    CentralFieldConfig,
    DomainError,
    IntegrationSettings,
    PolarState,
    angular_momentum_check,
    chart_qualified,
    k_integral,
    polar_from_cartesian,
    polar_system,
    radial_ep_residual,
    simulate_cartesian,
    simulate_polar,
    time_function,
)
from epwb.ode import X_MIN, Trajectory
from tests.conftest import grid


def config(phi_text: str = "1", k_text: str = "0") -> CentralFieldConfig:
    return CentralFieldConfig(time_function(phi_text), time_function(k_text))


CIRCULAR = PolarState(r=1.0, rdot=0.0, theta=0.0, thetadot=1.0)


class TestPolarSimulation:
    def test_circular_orbit(self):
        tr = simulate_polar(config(), CIRCULAR, (0.0, 20.0))
        for t in grid(0.0, 20.0, 101):
            r, rdot, theta, ell = tr.sample(t)
            assert r == pytest.approx(1.0, abs=1e-9)
            assert theta == pytest.approx(t, abs=1e-9)
            assert ell == pytest.approx(1.0, abs=1e-9)

    def test_theta_unwrapped(self):
        tr = simulate_polar(config(), CIRCULAR, (0.0, 20.0))
        assert tr.sample(20.0)[2] == pytest.approx(20.0, abs=1e-8)

    def test_nonpositive_radius_rejected(self):
        # the state itself refuses it, so neither representation can start from it
        with pytest.raises(ValueError, match=r"^initial radius must be positive, got 0\.0$"):
            PolarState(r=0.0, rdot=0.0, theta=0.0, thetadot=1.0)

    def test_inward_fall_guard_stops(self):
        # almost no angular momentum and a strong inward kick
        init = PolarState(r=1.0, rdot=-2.0, theta=0.0, thetadot=1e-8)
        tr = simulate_polar(config(), init, (0.0, 10.0))
        assert tr.status == GUARD_STOP
        assert np.all(np.isfinite(tr.states))

    def test_inward_fall_in_cartesian_coordinates_is_not_floored(self):
        # x^2 + y^2 is no state variable, so x_min does not apply: the
        # near-radial fall passes the origin at r = 0.042 (nodes) and completes
        init = PolarState(r=1.0, rdot=-2.0, theta=0.0, thetadot=1e-8)
        for settings in (IntegrationSettings(), IntegrationSettings(x_min=0.1)):
            tr = simulate_cartesian(config(), init, (0.0, 10.0), settings)
            assert (tr.status, tr.message, tr.t_end) == (COMPLETED, "", 10.0)
            assert np.all(np.isfinite(tr.states))
            assert np.min(np.hypot(tr.states[:, 0], tr.states[:, 2])) < 0.1


class TestAngularMomentum:
    def test_conserved_without_forcing(self):
        tr = simulate_polar(config(), CIRCULAR, (0.0, 20.0))
        assert angular_momentum_check(tr, config()) <= 1e-9

    def test_constant_forcing_ramps_linearly(self):
        cfg = config(k_text="0.1")
        tr = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        for t in grid(0.0, 10.0, 51):
            assert tr.sample(t)[3] == pytest.approx(1.0 + 0.1 * t, abs=1e-7)
        assert angular_momentum_check(tr, cfg) <= 1e-7

    def test_sinusoidal_forcing(self):
        cfg = config(k_text="sin(t)")
        tr = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        # the formal integral of sin is 1 - cos
        for t in grid(0.0, 10.0, 51):
            assert tr.sample(t)[3] == pytest.approx(2.0 - math.cos(t), abs=1e-7)
        assert angular_momentum_check(tr, cfg) <= 1e-7

    def test_one_sample_is_refused(self):
        # a spread over one value is 0 by construction, so it would pass vacuously
        tr = simulate_polar(config(), CIRCULAR, (0.0, 5.0))
        with pytest.raises(ValueError, match="at least two values"):
            angular_momentum_check(tr, config(), n=1)

    def test_k_integral_quadrature(self):
        cfg = config(k_text="sin(t)")
        quad = k_integral(cfg, (0.0, 10.0))
        for t in grid(0.0, 10.0, 51):
            assert quad.sample(t)[0] == pytest.approx(1.0 - math.cos(t), abs=1e-9)


class _FloorTrack:
    """A polar trajectory stand-in on the grid [0, 1]: radius 1, then ``r``; L = 1 and K(t) = 0."""

    states = [(1.0, 0.0, 0.0, 1.0)]
    system = polar_system(config())
    jet = Trajectory.jet  # derivatives read from sample and system, as a trajectory reads them

    def __init__(self, r):
        self.r = r

    def grid(self, n):
        return np.array([0.0, 1.0])

    def sample(self, ts):
        return np.array([[1.0, 0.0, 0.0, 1.0], [self.r, 0.0, 0.0, 1.0]])


class _NoForcing:
    """The quadrature K(t) of k = 0."""

    def sample(self, ts):
        return np.zeros((len(ts), 1))


class TestRadialResidual:
    def test_the_floor_admits_a_radius_equal_to_it(self):
        # r = X_MIN is at or above the floor, as ep_residual and integrate read it; one ulp less is not
        assert math.isfinite(radial_ep_residual(_FloorTrack(X_MIN), config(), quad=_NoForcing()))
        with pytest.raises(DomainError, match="too close to the axis"):
            radial_ep_residual(_FloorTrack(np.nextafter(X_MIN, 0.0)), config(), quad=_NoForcing())

    def test_circular_orbit_is_exact_equilibrium(self):
        cfg = config()
        tr = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        assert radial_ep_residual(tr, cfg) <= 1e-10

    def test_varying_frequency(self):
        cfg = config(phi_text="1+0.5*sin(t)")
        init = PolarState(r=1.2, rdot=0.3, theta=0.0, thetadot=0.8)
        tr = simulate_polar(cfg, init, (0.0, 20.0))
        assert radial_ep_residual(tr, cfg) <= 1e-6

    def test_forced_orbit_matches_integrated_square(self):
        cfg = config(k_text="0.1")
        tr = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        assert radial_ep_residual(tr, cfg) <= 1e-6

    def test_twenty_random_unforced_orbits(self):
        cfg = config(phi_text="1+0.5*sin(t)")
        rng = np.random.default_rng(17)
        for _ in range(20):
            init = PolarState(
                r=rng.uniform(0.6, 1.8),
                rdot=rng.uniform(-0.5, 0.5),
                theta=rng.uniform(-math.pi, math.pi),
                thetadot=rng.uniform(0.4, 1.5),
            )
            tr = simulate_polar(cfg, init, (0.0, 10.0))
            assert angular_momentum_check(tr, cfg) <= 1e-8
            assert radial_ep_residual(tr, cfg) <= 1e-6


class TestCartesianAgreement:
    def test_radius_matches_across_representations(self):
        cfg = config(phi_text="1+0.5*sin(t)")
        init = PolarState(r=1.1, rdot=0.2, theta=0.5, thetadot=0.9)
        polar = simulate_polar(cfg, init, (0.0, 20.0))
        cart = simulate_cartesian(cfg, init, (0.0, 20.0))
        for t in grid(0.0, 20.0, 101):
            r_polar = polar.sample(t)[0]
            st = polar_from_cartesian(cart.sample(t))
            assert st.r == pytest.approx(r_polar, abs=1e-6)

    def test_forced_system_couples_the_axes(self):
        cfg = config(k_text="0.1")
        polar = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        cart = simulate_cartesian(cfg, CIRCULAR, (0.0, 10.0))
        for t in grid(0.0, 10.0, 51):
            st = polar_from_cartesian(cart.sample(t))
            assert st.r == pytest.approx(polar.sample(t)[0], abs=1e-6)
            assert st.angular_momentum == pytest.approx(polar.sample(t)[3], abs=1e-6)

    def test_polar_from_cartesian_round_trip(self):
        st = polar_from_cartesian((1.0, 0.5, 1.0, -0.5))
        assert st.r == pytest.approx(math.sqrt(2.0))
        assert st.theta == pytest.approx(math.pi / 4)
        assert st.rdot == pytest.approx(0.0, abs=1e-15)
        assert st.angular_momentum == pytest.approx(-math.sqrt(2.0) * st.r / 2 * 1.0)

    def test_origin_has_no_chart(self):
        from epwb import DomainError

        with pytest.raises(DomainError):
            polar_from_cartesian((0.0, 1.0, 0.0, 1.0))


class TestChartQualification:
    def test_positive_forcing_qualifies(self):
        cfg = config(k_text="0.1")
        tr = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        assert chart_qualified(tr, cfg) is True

    def test_unforced_never_qualifies(self):
        cfg = config()
        tr = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        assert chart_qualified(tr, cfg) is False

    def test_sign_changing_forcing_disqualifies(self):
        cfg = config(k_text="sin(t)")
        tr = simulate_polar(cfg, CIRCULAR, (0.0, 10.0))
        assert chart_qualified(tr, cfg) is False
