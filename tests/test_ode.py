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
    write_csv,
)
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
        def rhs(t, y):
            return np.array([y[1], -1.0 / y[0]])

        sys = ODESystem(dim=2, rhs=rhs, guard=lambda t, y: y[0] < 0.1)
        tr = integrate(sys, (1.0, -1.0), (0.0, 10.0))
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
        def rhs(t, y):
            return np.array([y[1], -1.0 / y[0]])

        sys = ODESystem(dim=2, rhs=rhs, guard=lambda t, y: y[0] < 1e-6)
        tr = integrate(sys, (1.0, -1.0), (0.0, 10.0))
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
        def rhs(t, y):
            return np.array([y[1], -1.0 / y[0] ** 3])

        sys = ODESystem(dim=2, rhs=rhs, guard=lambda t, y: y[0] < 1e-6)
        tr = integrate(sys, (0.5, -2.0), (0.0, 10.0))
        assert tr.status in (GUARD_STOP, STEP_FAILURE)
        assert np.all(np.isfinite(tr.states))


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
