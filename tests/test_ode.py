import dataclasses
import math

import numpy as np
import pytest

from epwb import (
    COMPLETED,
    GUARD_STOP,
    STEP_FAILURE,
    DomainError,
    IntegrationSettings,
    ODESystem,
    integrate,
    residual,
    time_function,
    write_csv,
)
from epwb.pinney import EPConfig, ep_system
from tests.conftest import grid


def oscillator(omega2: float = 1.0) -> ODESystem:
    def rhs(t, y):
        return np.array([y[1], -omega2 * y[0]])

    return ODESystem(dim=2, rhs=rhs)


def pinney_type(g: float) -> ODESystem:
    """xddot + x = g / x^3, guarded away from the axis."""

    def rhs(t, y):
        return np.array([y[1], -y[0] + g / y[0] ** 3])

    return ODESystem(dim=2, rhs=rhs, guard=lambda t, y: y[0] < 1e-6)


def collapse(power: int, x_min: float) -> ODESystem:
    """xddot = -1 / x^power, guarded at x < x_min (the guard takes arrays too)."""

    def rhs(t, y):
        return np.array([y[1], -1.0 / y[0] ** power])

    return ODESystem(dim=2, rhs=rhs, guard=lambda t, y: y[0] < x_min)


# (system, initial state): each falls toward the axis and stops on [0, 10]
GUARD_STOPS = (
    (collapse(1, 0.1), (1.0, -1.0)),
    (collapse(1, 1e-6), (1.0, -1.0)),
    (collapse(3, 1e-6), (0.5, -2.0)),
)


class TestIntegrate:
    def test_cosine_period(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 2 * math.pi))
        assert tr.status == COMPLETED
        assert tr.sample(2 * math.pi)[0] == pytest.approx(1.0, abs=1e-8)

    def test_equilibrium_stays_put(self):
        tr = integrate(pinney_type(1.0), (1.0, 0.0), (0.0, 10.0))
        for t in grid(0.0, 10.0, 101):
            assert tr.sample(t)[0] == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_checkpoint(self):
        # x(t) = sqrt(4 cos^2 t + sin^2 t) solves xddot + x = 4/x^3 from (2, 0)
        tr = integrate(pinney_type(4.0), (2.0, 0.0), (0.0, 1.0))
        expect = math.sqrt(1.0 + 3.0 * math.cos(1.0) ** 2)
        assert tr.sample(1.0)[0] == pytest.approx(expect, abs=1e-7)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(oscillator(), (1.0, 0.0), (1.0, 0.0))

    def test_nonfinite_initial_state_rejected(self):
        with pytest.raises(ValueError):
            integrate(oscillator(), (math.nan, 0.0), (0.0, 1.0))


class TestSample:
    def test_node_is_exact(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 5.0))
        k = len(tr.times) // 2
        assert np.array_equal(tr.sample(tr.times[k]), tr.states[k])

    def test_dense_output_accuracy(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 2 * math.pi))
        assert tr.sample(math.pi / 3)[0] == pytest.approx(0.5, abs=1e-8)

    def test_out_of_range(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(DomainError):
            tr.sample(1.5)
        with pytest.raises(DomainError):
            tr.sample(-0.1)

    def test_beyond_guard_stop(self):
        sys, y0 = GUARD_STOPS[0]
        tr = integrate(sys, y0, (0.0, 10.0))
        assert tr.status == GUARD_STOP
        assert tr.t_end < 10.0
        with pytest.raises(DomainError):
            tr.sample(tr.t_end + 1.0)

    def test_array_sample_matches_scalar_sample(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 3.0))
        ts = grid(0.0, 3.0, 7)
        stacked = tr.sample(ts)
        for i, t in enumerate(ts):
            assert np.array_equal(stacked[i], tr.sample(t))

    def test_dense_output_tracks_cosine(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 20.0))
        ts = np.linspace(0.0, 20.0, 100_001)
        ys = tr.sample(ts)
        assert np.max(np.abs(ys[:, 0] - np.cos(ts))) <= 1e-9
        assert np.max(np.abs(ys[:, 1] + np.sin(ts))) <= 1e-9

    @pytest.mark.parametrize(
        "sys,y0",
        [(oscillator(), (1.0, 0.0)), (pinney_type(4.0), (2.0, 0.0))],
        ids=["cos", "pinney-e3"],
    )
    def test_interpolant_ends_at_next_node(self, sys, y0):
        # the last double before each node still lies in the step before it,
        # so this reads every interpolant at th = 1 - O(1e-16)
        tr = integrate(sys, y0, (0.0, 20.0))
        ends = tr.sample(np.nextafter(tr.times[1:], -np.inf))
        gap = np.linalg.norm(ends - tr.states[1:], axis=1)
        assert np.all(gap <= 1e-13 * np.linalg.norm(tr.states[1:], axis=1))


class TestResidual:
    def test_equilibrium_self_consistency(self):
        sys = pinney_type(1.0)
        tr = integrate(sys, (1.0, 0.0), (0.0, 10.0))
        assert residual(sys, tr, grid(0.0, 10.0)) <= 1e-10

    def test_wrong_system_detected(self):
        tr = integrate(pinney_type(4.0), (2.0, 0.0), (0.0, 10.0))
        # orbit stays in [1, 2]; rhs gap is 2/x^3 >= 0.25 there
        assert residual(pinney_type(2.0), tr, grid(0.0, 10.0)) >= 0.25

    def test_self_consistency_floor(self):
        sys = oscillator(4.0)
        tr = integrate(sys, (0.3, 1.7), (0.0, 8.0))
        assert residual(sys, tr, grid(0.0, 8.0)) <= 1e-6

    def test_empty_grid(self):
        sys = oscillator()
        tr = integrate(sys, (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            residual(sys, tr, [])

    def test_nan_is_never_swallowed(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 1.0))
        nan_sys = ODESystem(dim=2, rhs=lambda t, y: np.array([math.nan, 0.0]))
        with pytest.raises(DomainError):
            residual(nan_sys, tr, grid(0.0, 1.0))


class TestToleranceScaling:
    CASES = (
        ("cos", 1.0, (1.0, 0.0), 2 * math.pi, lambda t: math.cos(t)),
        ("equilibrium", 1.0, (1.0, 0.0), 10.0, lambda t: 1.0),
        (
            "pinney-e3",
            4.0,
            (2.0, 0.0),
            10.0,
            lambda t: math.sqrt(4 * math.cos(t) ** 2 + math.sin(t) ** 2),
        ),
    )

    @pytest.mark.parametrize("name,g,y0,t1,exact", CASES, ids=[c[0] for c in CASES])
    def test_halved_tolerance_not_worse(self, name, g, y0, t1, exact):
        sys = pinney_type(g)
        errs = []
        for scale in (1.0, 0.5):
            s = IntegrationSettings(rtol=1e-8 * scale, atol=1e-10 * scale)
            tr = integrate(sys, y0, (0.0, t1), s)
            err = max(abs(tr.sample(t)[0] - exact(t)) for t in grid(0.0, t1, 101))
            errs.append(err)
        assert errs[1] <= errs[0] + 1e-14


class TestGuardAndFailure:
    def test_collapse_toward_axis_guard_stops(self):
        sys, y0 = GUARD_STOPS[1]
        tr = integrate(sys, y0, (0.0, 10.0))
        assert tr.status == GUARD_STOP
        assert np.all(np.isfinite(tr.states))
        assert np.all(np.isfinite(tr.times))

    def test_rhs_failure_at_start(self):
        def rhs(t, y):
            return np.array([y[1], math.inf])

        tr = integrate(ODESystem(dim=2, rhs=rhs), (1.0, 0.0), (0.0, 1.0))
        assert tr.status == STEP_FAILURE
        assert np.all(np.isfinite(tr.states))

    def test_max_steps_exhaustion(self):
        s = IntegrationSettings(max_steps=5)
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 100.0), s)
        assert tr.status == STEP_FAILURE
        assert tr.t_end < 100.0

    def test_guard_never_returns_nan(self):
        sys, y0 = GUARD_STOPS[2]
        tr = integrate(sys, y0, (0.0, 10.0))
        assert tr.status in (GUARD_STOP, STEP_FAILURE)
        assert np.all(np.isfinite(tr.states))

    @pytest.mark.parametrize("sys,y0", GUARD_STOPS, ids=["x<0.1", "x<1e-6", "cubic"])
    def test_no_sample_of_a_stopped_trajectory_violates_the_guard(self, sys, y0):
        tr = integrate(sys, y0, (0.0, 10.0))
        assert tr.status != COMPLETED
        ts = np.linspace(tr.t0, tr.t_end, 200_001)
        assert not np.any(sys.guard(ts, tr.sample(ts).T))


class TestSettings:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("rtol", 0.0),
            ("rtol", -1e-8),
            ("rtol", math.nan),
            ("rtol", math.inf),
            ("atol", 0.0),
            ("atol", math.nan),
            ("atol", math.inf),
            ("x_min", -1e-6),
            ("x_min", math.nan),
            ("x_min", math.inf),
            ("max_steps", 0),
            ("max_steps", 2.5),
            ("max_steps", 10.0),
            ("max_steps", True),
        ],
    )
    def test_invalid_value_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegrationSettings(**{field: value})

    def test_boundary_values_are_accepted(self):
        s = IntegrationSettings(rtol=1e-300, atol=1e300, max_steps=np.int64(1), x_min=0.0)
        assert s.max_steps == 1


class TestWork:
    def test_driven_orbit_step_and_rhs_budget(self):
        cfg = EPConfig(phi=time_function("1+0.5*sin(3*t)"), g=time_function("2"))
        sys = ep_system(cfg)
        calls = 0

        def counting_rhs(t, y):
            nonlocal calls
            calls += 1
            return sys.rhs(t, y)

        tr = integrate(dataclasses.replace(sys, rhs=counting_rhs), (1.0, 0.0), (0.0, 60.0))
        assert tr.status == COMPLETED
        assert len(tr.times) - 1 <= 800
        assert calls <= 12_000


class TestEnergyDrift:
    def test_linear_oscillator_energy(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 20.0))
        vals = []
        for t in grid(0.0, 20.0, 401):
            x, v = tr.sample(t)
            vals.append(0.5 * (v * v + x * x))
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) / abs(vals[0]) <= 1e-8


class TestCsvExport:
    def test_header_and_round_trip(self, tmp_path):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 1.0))
        path = tmp_path / "orbit.csv"
        write_csv(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,xdot"
        assert len(lines) == len(tr.times) + 1
        first = [float(s) for s in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.0]
        # 17 significant digits must survive a float round trip
        data = np.array([[float(s) for s in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(data[:, 0], tr.times)
        assert np.array_equal(data[:, 1:], tr.states)

    def test_custom_names(self, tmp_path):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 1.0))
        path = tmp_path / "named.csv"
        write_csv(tr, path, names=("q", "p"))
        assert path.read_text().splitlines()[0] == "t,q,p"
