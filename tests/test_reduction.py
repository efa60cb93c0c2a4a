import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import epwb
from epwb import (
    DomainError,
    SecondOrderODE,
    abel_residual,
    autonomous_residual,
    canonical_chart,
    compatible_family,
    ep_system,
    integrate,
    point_symmetry,
    surviving_symmetry,
    symmetry_residual,
    time_function,
    transform_trajectory,
)
from epwb.cli import main
from epwb.pinney import EPConfig
from epwb.reduction import FORCING_CONSTANT, TURNING_SPEED, TransformedOrbit
from epwb.symmetry import default_samples
from tests.conftest import G_CATALOG, M_VALUES, grid


def family(g_text: str, interval, c0: float = 1.0, m: float = 1.0):
    return compatible_family(time_function(g_text), c0, m, interval)


def ep_orbit(fam, y0):
    return integrate(ep_system(EPConfig(fam.phi, fam.g)), y0, fam.interval)


@pytest.fixture(scope="module")
def exp_family():
    return family("exp(4*t)", (0.0, 2.0))


@pytest.fixture(scope="module")
def exp_chart(exp_family):
    return canonical_chart(exp_family)


@pytest.fixture(scope="module")
def quartic_family():
    return family("(1+t)^4", (0.0, 3.0))


class TestChartClosedForms:
    def test_exponential_time_and_scale(self, exp_chart):
        for t in grid(0.0, 2.0, 21):
            assert exp_chart.time(t) == pytest.approx(t, abs=1e-12)
            assert exp_chart.scale(t) == pytest.approx(2 * math.exp(-t), rel=1e-12)

    def test_quartic_time_and_scale(self, quartic_family):
        chart = canonical_chart(quartic_family)
        for t in grid(0.0, 3.0, 21):
            assert chart.time(t) == pytest.approx(math.log(1 + t), abs=1e-12)
            assert chart.scale(t) == pytest.approx(2 * (1 + t) ** -1.5, rel=1e-12)

    def test_unit_state_maps_to_two(self, exp_chart):
        assert exp_chart.position(0.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_decreasing_g_rejected_at_chart_time(self):
        fam = family("(1+t)^4", (0.0, 3.0))
        chart = canonical_chart(fam)
        with pytest.raises(DomainError):
            chart.time(-2.0)


class TestChartRectifiesSymmetry:
    @pytest.mark.parametrize(
        "g_text,interval", (("exp(4*t)", (0.0, 2.0)), ("(1+t)^4", (0.0, 3.0)))
    )
    def test_pushed_symmetry_is_pure_time_shift(self, g_text, interval):
        fam = family(g_text, interval)
        chart = canonical_chart(fam)
        sym = surviving_symmetry(fam)
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.uniform(interval[0] + 0.05, interval[1] - 0.05)
            x = rng.uniform(0.5, 2.0)
            big_tau, big_xi = chart.symmetry_applied(sym, t, x)
            assert big_tau == pytest.approx(4 * chart.sigma, abs=1e-10)
            assert abs(big_xi) <= 1e-10

    def test_time_component_tracks_sigma(self, exp_family):
        chart = canonical_chart(exp_family, sigma=0.75)
        sym = surviving_symmetry(exp_family)
        big_tau, _ = chart.symmetry_applied(sym, 1.0, 1.5)
        assert big_tau == pytest.approx(3.0, abs=1e-10)


class TestRoundTrip:
    def test_time_inversion(self, exp_chart):
        for t in grid(0.0, 2.0, 21):
            assert exp_chart.t_of(exp_chart.time(t)) == pytest.approx(t, abs=1e-10)

    def test_position_inversion(self, exp_chart):
        for t in grid(0.1, 1.9, 11):
            for x in (0.6, 1.0, 1.7):
                big_x = exp_chart.position(t, x)
                assert exp_chart.x_of(t, big_x) == pytest.approx(x, abs=1e-10)

    def test_t_of_out_of_range(self, exp_chart):
        with pytest.raises(DomainError):
            exp_chart.t_of(exp_chart.time(2.0) + 1.0)

    def test_t_of_inverts_log_to_rounding(self, quartic_family):
        # on the (1+t)^4 chart T = log(1+t), so t = expm1(T)
        chart = canonical_chart(quartic_family)
        for big_t in grid(0.0, math.log(4.0), 23)[1:-1].tolist():
            assert abs(chart.t_of(big_t) - math.expm1(big_t)) <= 1e-13

    def test_t_of_returns_the_interval_ends_exactly(self, quartic_family):
        chart = canonical_chart(quartic_family)
        assert chart.t_of(chart.time(0.0)) == 0.0
        assert chart.t_of(chart.time(3.0)) == 3.0


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(epwb.__file__)))
    code = "import sys, epwb, epwb.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestAutonomousImage:
    @pytest.mark.parametrize(
        "g_text,interval",
        (("exp(4*t)", (0.0, 2.0)), ("(1+t)^4", (0.0, 3.0)), ("(2+t)^3", (0.0, 3.0))),
        ids=("exp", "quartic", "cubic"),
    )
    @pytest.mark.parametrize("m", (0.0, 1.0))
    def test_reduced_equation_residual(self, g_text, interval, m):
        fam = family(g_text, interval, m=m)
        chart = canonical_chart(fam)
        orbit = transform_trajectory(chart, ep_orbit(fam, (1.0, 0.0)), n=200)
        assert autonomous_residual(orbit, fam.omega) <= 1e-6

    def test_wrong_time_scale_fails_loudly(self, exp_family):
        chart = canonical_chart(exp_family, sigma=0.75)
        orbit = transform_trajectory(chart, ep_orbit(exp_family, (1.0, 0.0)), n=200)
        assert autonomous_residual(orbit, exp_family.omega) >= 0.1

    def test_wrong_time_scale_scales_the_coefficients(self, exp_family):
        # with T three times too fast the image is still autonomous:
        # X'' + (2/3) X' + (Omega/9) X = (16/9)/X^3, pointwise to rounding
        chart = canonical_chart(exp_family, sigma=0.75)
        o = transform_trajectory(chart, ep_orbit(exp_family, (1.0, 0.0)), n=200)
        damping, omega, forcing = 2.0 / 3.0, exp_family.omega / 9.0, FORCING_CONSTANT / 9.0
        assert np.max(np.abs(o.A + damping * o.V + omega * o.X - forcing / o.X**3)) <= 1e-12

    def test_image_has_time_shift_symmetry(self, exp_family):
        omega = exp_family.omega
        image = SecondOrderODE.from_text(f"-2*v - {omega}*x + 16/x^3")
        shift = point_symmetry("1", "0")
        assert symmetry_residual(shift, image, default_samples((0.0, 5.0))) == 0.0


class TestEquilibriumChain:
    def test_exponential_ray_maps_to_fixed_point(self, exp_family, exp_chart):
        # x = 2^(-1/4) e^t solves the family equation and its image is the
        # equilibrium X = 8^(1/4) of the reduced equation
        x0 = 2.0 ** -0.25
        traj = ep_orbit(exp_family, (x0, x0))
        orbit = transform_trajectory(exp_chart, traj, n=100)
        target = 8.0 ** 0.25
        assert np.max(np.abs(orbit.X - target)) <= 1e-10
        assert np.max(np.abs(orbit.V)) <= 1e-9
        # consistency: 2 X0 = 16 / X0^3 at Omega = 2
        assert 2 * target == pytest.approx(FORCING_CONSTANT / target**3, rel=1e-14)


@pytest.fixture(scope="module")
def orbit(exp_family, exp_chart):
    return transform_trajectory(exp_chart, ep_orbit(exp_family, (1.0, 0.0)), n=200)


def _orbit(big_x, big_v, big_a):
    """A transformed orbit at T = 0, 1, 2, 3 with the given X, dX/dT and d2X/dT2."""
    ts = np.arange(4.0)
    return TransformedOrbit(t=ts, T=ts, X=big_x, V=big_v, A=big_a)


class TestAbelRelation:
    def test_corrected_powers_hold(self, orbit, exp_family):
        res = abel_residual(orbit, exp_family.omega)
        assert res.residual <= 1e-5
        assert res.samples_used + res.samples_skipped == len(orbit.T)

    def test_literal_powers_fail(self, orbit, exp_family):
        res = abel_residual(orbit, exp_family.omega, literal=True)
        assert res.residual >= 0.1

    def test_turning_points_are_skipped_not_scored(self):
        # A solves the relation at each sample but the second, whose |V| is
        # below TURNING_SPEED; |V| = TURNING_SPEED is scored
        big_x = np.array([1.0, 1.5, 2.0, 1.2])
        big_v = np.array([0.5, 0.5 * TURNING_SPEED, TURNING_SPEED, -0.3])
        big_a = -2.0 * big_v - 3.0 * big_x + FORCING_CONSTANT / big_x**3
        big_a[1] += 1.0
        res = abel_residual(_orbit(big_x, big_v, big_a), 3.0)
        assert (res.samples_used, res.samples_skipped) == (3, 1)
        assert res.residual <= 1e-14

    def test_all_samples_skipped(self):
        big_v = np.array([0.0, 0.5, -0.5, -0.99]) * TURNING_SPEED
        with pytest.raises(ValueError, match="turning point"):
            abel_residual(_orbit(np.ones(4), big_v, np.ones(4)), 3.0)


class TestTransformPlumbing:
    def test_rejects_non_planar_trajectory(self, exp_chart):
        from epwb import ODESystem
        from epwb.expressions import const, var

        sys3 = ODESystem(("x", "v", "a"), (var("v"), var("a"), const(0.0)))
        tr = integrate(sys3, (1.0, 0.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            transform_trajectory(exp_chart, tr)

    def test_explicit_grid(self, exp_family, exp_chart):
        traj = ep_orbit(exp_family, (1.0, 0.0))
        orbit = transform_trajectory(exp_chart, traj, n=50)
        assert len(orbit) == 50
        np.testing.assert_array_equal(orbit.t, traj.grid(50))
        assert orbit.T[0] == exp_chart.time(orbit.t[0])

    def test_csv_export(self, tmp_path):
        # the reduce kind writes the transformed orbit's (T, X, V) table
        sc = {
            "kind": "reduce",
            "g": "exp(4*t)",
            "c0": 1.0,
            "m": 1.0,
            "interval": [0.0, 2.0],
            "initial": [1.0, 0.0],
            "outputs": {"csv": "orbit.csv"},
        }
        (tmp_path / "reduce.json").write_text(json.dumps(sc))
        assert main(["run", str(tmp_path / "reduce.json")]) == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == "T,X,V"
        assert len(lines) == 401  # transform_trajectory's 400 samples
        first = [float(s) for s in lines[1].split(",")]
        # X(0) = x mu = 2, V(0) = x mu'(0) = -2 for the exponential chart
        assert first[1] == pytest.approx(2.0, abs=1e-12)
        assert first[2] == pytest.approx(-2.0, abs=1e-10)


class TestCatalogCoverage:
    @pytest.mark.parametrize("g_text,interval", G_CATALOG, ids=[g for g, _ in G_CATALOG])
    @pytest.mark.parametrize("m", M_VALUES)
    def test_full_pipeline(self, g_text, interval, m):
        fam = family(g_text, interval, m=m)
        chart = canonical_chart(fam)
        orbit = transform_trajectory(chart, ep_orbit(fam, (1.2, 0.1)), n=150)
        assert autonomous_residual(orbit, fam.omega) <= 1e-6
        assert abel_residual(orbit, fam.omega).residual <= 1e-5
