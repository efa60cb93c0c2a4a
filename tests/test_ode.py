import dataclasses
import math
import re
import warnings

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
)
from epwb import ode
from epwb.central_field import (
    CentralFieldConfig,
    PolarState,
    cartesian_system,
    k_integral,
    polar_system,
    radial_ep_residual,
    simulate_polar,
)
from epwb.expressions import const, evaluate, sin, var
from epwb.oscillator import QuadraticFormCurve, _pair_system, fundamental_pair, oscillator_system
from epwb.pinney import EPConfig, ep_residual, ep_system
from epwb.third_order import ThirdOrderConfig, third_order_system
from tests.conftest import grid


X, V = var("x"), var("v")


def oscillator(omega2: float = 1.0) -> ODESystem:
    return ODESystem(("x", "v"), (V, const(-omega2) * X))


def pinney_type(g: float) -> ODESystem:
    """xddot + x = g / x^3 on x > 0, so floored away from the axis."""
    return ODESystem(("x", "v"), (V, -X + const(g) / X**3), domain=(X,))


def collapse(power: int) -> ODESystem:
    """xddot = -1 / x^power on x > 0, floored at settings.x_min."""
    return ODESystem(("x", "v"), (V, const(-1.0) / X**power), domain=(X,))


# (system, initial state, floor): each falls toward the axis and stops on [0, 10]
GUARD_STOPS = (
    (collapse(1), (1.0, -1.0), 0.1),
    (collapse(1), (1.0, -1.0), 1e-6),
    (collapse(3), (0.5, -2.0), 1e-6),
)


def stop(case) -> ode.Trajectory:
    """The trajectory of a ``GUARD_STOPS`` case over [0, 10]."""
    sys, y0, x_min = case
    return integrate(sys, y0, (0.0, 10.0), IntegrationSettings(x_min=x_min))


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
        with pytest.raises(ValueError, match="interval must be finite"):
            integrate(oscillator(), (1.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize(
        "interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_nonfinite_interval_rejected(self, interval):
        # an infinite end would spend the whole step budget before failing; the
        # width of (-1e308, 1e308) overflows though both of its ends are finite
        with pytest.raises(ValueError, match="interval must be finite"):
            integrate(oscillator(), (1.0, 0.0), interval)

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

    def test_out_of_range_message_prints_plain_floats(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 2.0))
        for t in (3.0, [3.0]):
            with pytest.raises(DomainError) as exc:
                tr.sample(t)
            assert str(exc.value) == "t=3.0 outside trajectory range [0.0, 2.0]"

    def test_beyond_guard_stop(self):
        tr = stop(GUARD_STOPS[0])
        assert tr.status == GUARD_STOP
        assert tr.t_end < 10.0
        with pytest.raises(DomainError):
            tr.sample(tr.t_end + 1.0)

    def test_array_sample_matches_scalar_sample(self):
        # a scalar read bisects a list and evaluates one step's interpolant;
        # it must equal the grid read bit for bit, at nodes and between them
        rng = np.random.default_rng(7)
        cfg = EPConfig(time_function("1+0.5*sin(3*t)"), time_function("2"))
        basis = fundamental_pair(time_function("1+0.5*sin(t)"), (0.0, 10.0))
        polar = simulate_polar(FORCED, PolarState(1.0, 0.1, 0.0, 0.8), (0.0, 10.0))
        trajectories = (
            integrate(oscillator(), (1.0, 0.0), (0.0, 3.0)),
            k_integral(FORCED, (0.0, 10.0)),
            integrate(ep_system(cfg), (1.0, 0.0), (0.0, 60.0)),
            polar,
            basis.u,
            basis.v,
        )
        for tr in trajectories:
            ts = np.concatenate([rng.uniform(tr.t0, tr.t_end, 1000), tr.times, [tr.t0, tr.t_end]])
            stacked = tr.sample(ts)
            for i, t in enumerate(ts.tolist()):
                assert np.array_equal(stacked[i], tr.sample(t))
            assert np.array_equal(stacked[-2:], tr.states[[0, -1]])

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan, math.inf, -math.inf])
    def test_scalar_out_of_range_raises_as_a_grid_does(self, t):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(DomainError) as grid_error:
            tr.sample([t])
        for scalar in (t, np.float64(t)):
            with pytest.raises(DomainError) as exc:
                tr.sample(scalar)
            assert str(exc.value) == str(grid_error.value)

    def test_integer_time_is_a_scalar(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 3.0))
        assert tr.sample(2).shape == (2,)
        assert np.array_equal(tr.sample(2), tr.sample([2.0])[0])

    def test_jet_at_one_time_is_the_grid_read(self):
        # one time, as a scalar or a one-point grid, reads one step's
        # interpolant; the slope row of k = dim is the fields on that point
        cfg = EPConfig(time_function("1+0.5*sin(3*t)"), time_function("2"))
        tr = integrate(ep_system(cfg), (1.0, 0.0), (0.0, 10.0))
        ts = np.concatenate([np.random.default_rng(3).uniform(0.0, 10.0, 50), tr.times[:5]])
        for k in range(tr.dim + 1):
            rows = tr.jet(ts, k)
            for i, t in enumerate(ts.tolist()):
                assert np.array_equal(tr.jet(t, k), tr.jet([t], k))
                assert np.array_equal(tr.jet([t], k)[: tr.dim], rows[: tr.dim, i : i + 1])

    def test_jet_reads_the_derivative_chain_from_the_fields(self):
        # (u, u', v, v') and (r, r', theta, L) are chains of length 1: row 2
        # is field 1, the acceleration, not the state column after r'
        ts = grid(0.0, 2.0, 11)
        phi = time_function("1+0.5*sin(t)")
        pair = fundamental_pair(phi, (0.0, 2.0)).pair
        u, _, udd = pair.jet(ts, 2)
        assert np.array_equal(udd, -phi.jet(ts, 0)[0] * u)
        with pytest.raises(ValueError):
            pair.jet(ts, 3)
        unforced = CentralFieldConfig(phi, time_function("0"))
        polar = simulate_polar(unforced, PolarState(1.0, 0.2, 0.0, 1.0), (0.0, 2.0))
        assert np.array_equal(polar.jet(ts, 2)[2], polar.system.slopes(ts, polar.sample(ts))[:, 1])
        # L = 1 throughout, so r'' + phi r = 1/r^3 is the EP equation with g = 1
        assert ep_residual(EPConfig(phi, time_function("1")), polar, ts) <= 1e-12

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

    def test_each_grid_samples_a_trajectory_once(self, monkeypatch):
        cfg = EPConfig(time_function("1+0.5*sin(3*t)"), time_function("2"))
        ep = integrate(ep_system(cfg), (1.0, 0.0), (0.0, 2.0))
        forced = CentralFieldConfig(time_function("1+0.3*cos(2*t)"), time_function("0.05*sin(t)"))
        polar = simulate_polar(forced, PolarState(1.0, 0.1, 0.0, 0.8), (0.0, 2.0))
        calls = []
        original = ode.Trajectory.sample
        monkeypatch.setattr(
            ode.Trajectory, "sample", lambda self, t: calls.append(self) or original(self, t)
        )
        ep.jet(grid(0.0, 2.0, 11), 2)
        assert calls == [ep]
        calls.clear()
        radial_ep_residual(polar, forced, n=11)
        assert calls.count(polar) == 1
        # a quadratic form reads the basis pair once for (u, u', v, v')
        basis = fundamental_pair(time_function("1+0.5*sin(t)"), (0.0, 2.0))
        calls.clear()
        QuadraticFormCurve(basis, 1.0, 0.2, 1.5).jet(grid(0.0, 2.0, 11), 3)
        assert calls == [basis.pair]


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

    def test_state_names_must_match(self):
        # both systems read one environment, so a candidate with other names
        # could read the trajectory's components under the wrong name
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 1.0))
        for names in (("v", "x"), ("x",), ("u", "w")):
            candidate = ODESystem(names, (V, -X)[: len(names)])
            with pytest.raises(ValueError, match="differ from the trajectory's"):
                residual(candidate, tr, grid(0.0, 1.0))

    def test_nan_is_never_swallowed(self):
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 1.0))
        nan_sys = ODESystem(("x", "v"), (const(math.nan), const(0.0)))
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
        tr = stop(GUARD_STOPS[1])
        assert tr.status == GUARD_STOP
        assert np.all(np.isfinite(tr.states))
        assert np.all(np.isfinite(tr.times))

    def test_rhs_failure_at_start(self):
        sys = dataclasses.replace(oscillator(), rhs=lambda t, y: (y[1], math.inf))
        tr = integrate(sys, (1.0, 0.0), (0.0, 1.0))
        assert tr.status == STEP_FAILURE
        assert np.all(np.isfinite(tr.states))

    def test_max_steps_exhaustion(self):
        s = IntegrationSettings(max_steps=5)
        tr = integrate(oscillator(), (1.0, 0.0), (0.0, 100.0), s)
        assert tr.status == STEP_FAILURE
        assert tr.t_end < 100.0

    def test_guard_never_returns_nan(self):
        tr = stop(GUARD_STOPS[2])
        assert tr.status in (GUARD_STOP, STEP_FAILURE)
        assert np.all(np.isfinite(tr.states))

    @pytest.mark.parametrize("case", GUARD_STOPS, ids=["x<0.1", "x<1e-6", "cubic"])
    def test_no_sample_of_a_stopped_trajectory_violates_the_guard(self, case):
        tr = stop(case)
        assert tr.status != COMPLETED
        ts = np.linspace(tr.t0, tr.t_end, 200_001)
        assert not np.any(tr.sample(ts)[:, 0] < case[2])

    def test_the_floor_is_the_integration_setting(self):
        # x_min reaches the run only through integrate's settings: the EP
        # orbit from (3, 0) with phi = g = 1 dips to x = 1/3 on [0, 10]
        sys = ep_system(EPConfig(time_function("1"), time_function("1")))
        assert integrate(sys, (3.0, 0.0), (0.0, 10.0)).status == COMPLETED
        tr = integrate(sys, (3.0, 0.0), (0.0, 10.0), IntegrationSettings(x_min=0.5))
        assert tr.status == GUARD_STOP
        assert tr.message.startswith("guard fired within step ending t=")
        ts = np.linspace(tr.t0, tr.t_end, 200_001)
        assert np.min(tr.sample(ts)[:, 0]) >= 0.5

    def test_the_polar_floor_is_the_integration_setting(self):
        # with L = 0.1 the radius swings in to r = 0.1 and back to 1
        init = PolarState(r=1.0, rdot=0.0, theta=0.0, thetadot=0.1)
        cfg = CentralFieldConfig(time_function("1"), time_function("0"))
        assert simulate_polar(cfg, init, (0.0, 10.0)).status == COMPLETED
        tr = integrate(polar_system(cfg), (1.0, 0.0, 0.0, 0.1), (0.0, 10.0), IntegrationSettings(x_min=0.5))
        assert tr.status == GUARD_STOP
        ts = np.linspace(tr.t0, tr.t_end, 200_001)
        assert np.min(tr.sample(ts)[:, 0]) >= 0.5

    def test_a_state_below_the_floor_stops_at_once(self):
        tr = integrate(collapse(1), (0.05, 1.0), (0.0, 1.0), IntegrationSettings(x_min=0.1))
        assert (tr.status, tr.message) == (GUARD_STOP, "guard fired at initial state t=0.0")
        assert len(tr.times) == 1

    def test_only_domain_variables_are_floored(self):
        assert ep_system(EPConfig(time_function("1"), time_function("1"))).floored == (0,)
        assert polar_system(FORCED).floored == (0,)
        assert cartesian_system(FORCED).floored == ()
        assert oscillator().floored == ()
        floored = ODESystem(("v", "x"), (X, V), domain=(X, V * V + X))
        assert floored.floored == (1,)


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


def coupled(dim: int) -> ODESystem:
    """Nonlinear, time-dependent system of any state dimension."""
    names = tuple(f"y{i}" for i in range(dim))
    ys = [var(name) for name in names]
    t = var("t")
    return ODESystem(
        names, tuple(sin(t + ys[(i + 1) % dim]) - const(0.3) * ys[i] * ys[i] for i in range(dim))
    )


def reference_step(rhs, t, h, y, f, rtol, atol):
    """One DOP853 attempt as NumPy matrix products over the tableau arrays.

    Returns (err, y_new, f_new, q) as the generated step does, plus the
    sixteen stage slopes.
    """
    y = np.array(y)
    K = np.zeros((16, len(y)))
    K[0] = f
    for i in range(1, 12):
        K[i] = rhs(t + ode._C[i] * h, tuple(y + h * (ode._A[i] @ K[:i])))
    y_new = y + h * (ode._B @ K[:12])
    err = _error_norm(h, y, y_new, ode._E5 @ K[:12], ode._E3 @ K[:12], rtol, atol)
    K[12] = rhs(t + h, tuple(y_new))
    for i in range(13, 16):
        K[i] = rhs(t + ode._C[i] * h, tuple(y + h * (ode._A[i] @ K[:i])))
    dy = y_new - y
    F = np.vstack([dy, h * K[0] - dy, 2 * dy - h * (K[0] + K[12]), h * (ode._D @ K)])
    return (err, y_new, K[12], (F.T @ ode._MONOMIAL).ravel()), K


def _error_norm(h, y, y_new, e5, e3, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    err5 = np.sum((e5 / scale) ** 2)
    err3 = np.sum((e3 / scale) ** 2)
    return h * err5 / np.sqrt((err5 + 0.01 * err3) * len(y))


def term_magnitudes(h, y, K, rtol, atol):
    """The error norm and dense coefficients summed over |coefficient * value|.

    The estimators and the high dense rows cancel terms of order |K| down to
    far smaller values, so summation order moves them by a few ulps of
    these magnitudes, not of the results.
    """
    y = np.abs(y)
    y_new = y + h * (np.abs(ode._B) @ np.abs(K[:12]))
    e5 = np.abs(ode._E5) @ np.abs(K[:12])
    e3 = np.abs(ode._E3) @ np.abs(K[:12])
    dy = y + y_new
    K = np.abs(K)
    F = np.vstack([dy, h * K[0] + dy, 2 * dy + h * (K[0] + K[12]), h * (np.abs(ode._D) @ K)])
    return _error_norm(h, y, y_new, e5, e3, rtol, atol), (F.T @ np.abs(ode._MONOMIAL)).ravel()


def assert_close(actual, expected, magnitude):
    gap = np.abs(np.asarray(actual, dtype=float) - expected)
    assert np.all(gap <= 1e-13 * magnitude)


def interpolant(h, y, y_new, stages) -> np.ndarray:
    """The 7*dim interpolant coefficients of one accepted step, from the stage values it returned."""
    dim = len(y)
    y, y_new, stages = np.reshape(y, (dim, 1)), np.reshape(y_new, (dim, 1)), np.reshape(stages, (-1, dim, 1))
    return ode._interpolants(np.array([h]), y, y_new, stages).ravel()


def float_rows(h, y, y_new, stages) -> tuple:
    """One component's 7 coefficients as Python floats: the ``_terms`` source of its F and q rows, run.

    ``stages`` are that component's values of the stages ``_DENSE_STAGES``;
    this per-step float code is what the pass must reproduce bit for bit.
    """
    lines = [
        "F0 = n - y",
        "F1 = h*k0 - F0",
        "F2 = 2.0*F0 - h*(k0 + k12)",
        *(f"F{3 + r} = h*({ode._terms(d, [f'k{j}' for j in range(16)])})" for r, d in enumerate(ode._D)),
        "q = (" + ", ".join(ode._terms(ode._MONOMIAL[:, j], [f"F{r}" for r in range(7)]) for j in range(7)) + ")",
    ]
    env = {"h": h, "y": y, "n": y_new, **{f"k{s}": k for s, k in zip(ode._DENSE_STAGES, stages)}}
    exec("\n".join(lines), env)
    return env["q"]


class TestGeneratedStep:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_numpy_reference(self, dim):
        # the step returns the stage values its interpolant reads, and the
        # interpolant pass turns them into the reference's coefficients
        t, h, rtol, atol = 0.3, 0.2, 1e-8, 1e-10
        y = tuple(0.4 + 0.3 * i for i in range(dim))
        rhs = coupled(dim).rhs
        f = rhs(t, y)
        step = ode._stepper(dim)
        err, y_new, f_new, stages = step(rhs, t, h, y, f, rtol, atol)
        ref, K = reference_step(rhs, t, h, y, f, rtol, atol)
        err_mag, q_mag = term_magnitudes(h, y, K, rtol, atol)
        assert err <= 1.0
        assert_close(err, ref[0], err_mag)
        assert_close(y_new, ref[1], np.abs(ref[1]))
        assert_close(f_new, ref[2], np.abs(ref[2]))
        assert len(stages) == 12 * dim
        assert_close(interpolant(h, y, y_new, stages), ref[3], q_mag)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_rejected_attempt_returns_only_the_error(self, dim):
        t, h, rtol, atol = 0.0, 0.3, 1e-12, 1e-14
        y = tuple(1.0 + i for i in range(dim))
        rhs = coupled(dim).rhs
        f = rhs(t, y)
        step = ode._stepper(dim)
        err, *rest = step(rhs, t, h, y, f, rtol, atol)
        ref, K = reference_step(rhs, t, h, y, f, rtol, atol)
        assert err > 1.0
        assert_close(err, ref[0], term_magnitudes(h, y, K, rtol, atol)[0])
        assert rest == [None, None, None]

    @pytest.mark.parametrize("scale", [1.0, 1e306], ids=["random", "overflowing"])
    def test_the_pass_is_the_float_arithmetic_bit_for_bit(self, scale):
        rng = np.random.default_rng(17)
        n, dim = 40, 3
        h = rng.uniform(0.01, 2.0, n)
        y, y_new = (scale * rng.uniform(-1.0, 1.0, (n, dim)) for _ in range(2))
        stages = scale * rng.standard_normal((n, 12, dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # floats overflow to inf silently, and so must the pass
            q = ode._interpolants(h, y.T, y_new.T, stages.transpose(1, 2, 0))
        expected = np.array(
            [
                [float_rows(*(a.item() for a in (h[i], y[i, c], y_new[i, c])), stages[i, :, c].tolist()) for c in range(dim)]
                for i in range(n)
            ]
        )
        assert np.isinf(q).any() == (scale > 1.0)
        assert np.array_equal(q, expected, equal_nan=True)
        ok = ~np.isnan(expected)
        assert q[ok].tobytes() == expected[ok].tobytes()  # the sign of every zero too

    def test_scan_matches_the_dense_output(self):
        # the floor scan reads the states that sample() interpolates at th = 1/4, 1/2, 3/4
        tr = integrate(coupled(3), (0.4, 0.7, 1.0), (0.0, 1.0))
        t, h = tr.times[:-1], np.diff(tr.times)
        scanned = ode._scan_states(tr._dense, tr.states[:-1])
        for th, states in zip(ode._SCAN_AT, scanned):
            assert_close(states, tr.sample(t + th * h), np.abs(states))

    def test_scan_reads_only_the_floored_components(self):
        # v = -sin t falls to -1 while the floored x = 2 + cos t stays at or above 1
        sys = ODESystem(("v", "x"), (const(2.0) - X, V), domain=(X,))
        assert sys.floored == (1,)
        tr = integrate(sys, (0.0, 3.0), (0.0, 10.0), IntegrationSettings(x_min=0.5))
        assert (tr.status, tr.t_end) == (COMPLETED, 10.0)
        assert np.min(tr.states[:, 0]) < -0.99
        assert integrate(sys, (0.0, 3.0), (0.0, 10.0), IntegrationSettings(x_min=1.5)).status == GUARD_STOP

    @pytest.mark.parametrize("fires", range(4))
    def test_scan_stops_at_the_first_guard_that_fires(self, fires):
        # of four steps from x = 1, step ``fires`` and every later one dips
        # to 0 at th = 1/4, 1/2 or 3/4; the scan names the first of them
        q, y = np.zeros((4, 2, 7)), np.ones((4, 2))
        y[:, 0] = -1.0  # below the floor, but not floored
        for k in range(fires, 4):
            th = ode._SCAN_AT[k % 3]
            q[k, 1, :2] = -2.0 / th, 1.0 / th**2  # x = (1 - th/th_k)^2
        assert ode._first_below(q, y, (1,), 0.5) == fires
        assert ode._first_below(q, y, (1,), 0.0) is None

    @pytest.mark.parametrize("check", range(4), ids=["end", "th=1/4", "th=1/2", "th=3/4"])
    @pytest.mark.parametrize("where", ["in the first block", "at a block's last step", "past the first block"])
    def test_a_guard_cuts_the_run_at_its_step(self, where, check, descent, monkeypatch):
        # the first value below the floor is step k's end or its state at one
        # th; an interior is scanned with its block, so the run goes on to the
        # block's end or its own, then stops with step k's message
        ref, floors = descent
        cases = [(k, x_min) for (k, c), x_min in floors.items() if c == check]
        if where == "in the first block":
            k, x_min = next((k, x_min) for k, x_min in cases if 0 < k < ode._BLOCK - 1)
        elif where == "at a block's last step":
            k, x_min = next((k, x_min) for k, x_min in cases if k > 2)
            monkeypatch.setattr(ode, "_BLOCK", next(d for d in range(2, k + 2) if (k + 1) % d == 0))
        else:
            k, x_min = next((k, x_min) for k, x_min in cases if k > ode._BLOCK)
        assert_cut(integrate(DESCENT, (10.0,), (0.0, 60.0), IntegrationSettings(x_min=x_min)), ref, k)

    def test_generated_once_per_dimension(self):
        # the calling step once per dimension, the step with a kernel
        # inlined once per kernel text, so systems of one shape share its code
        code = ode._stepper(3)
        coupled(3).step  # builds the step of coupled(3)'s kernel, if no test has
        pinney_type(1.0).step  # and of pinney_type's
        before = ode._stepper.cache_info()
        systems = (coupled(3), coupled(3))
        for sys, y0 in zip(systems, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))):
            integrate(sys, y0, (0.0, 1.0))
        for x0 in (1.0, 2.0):
            integrate(pinney_type(1.0), (x0, 0.0), (0.0, 1.0))
        after = ode._stepper.cache_info()
        assert ode._stepper(3) is code
        assert after.misses == before.misses
        assert after.hits >= before.hits + 4  # a step per integration
        assert systems[0].step.__code__ is systems[1].step.__code__
        assert systems[0].step.__code__ is not code.__code__
        assert ode._stepper(2) is not code


# x = 9 + cos 3t - 0.05 t: each minimum is lower than the one before, so a
# floor just above one is first passed within the step that holds it
DESCENT = ODESystem(("x",), (const(-3.0) * sin(const(3.0) * var("t")) - const(0.05),), domain=(X,))


@pytest.fixture(scope="module")
def descent():
    """DESCENT's unguarded run over [0, 60] and the floors that stop it first at one check of one step.

    The floors map (k, c) to a floor between the value of step k at check
    c (0 its end, 1-3 th = 1/4, 1/2, 3/4) and every other value the run
    checks up to that step: the initial state, and each end and scanned state.
    """
    ref = integrate(DESCENT, (10.0,), (0.0, 60.0), IntegrationSettings(x_min=0.0))
    assert ref.status == COMPLETED and len(ref.times) > ode._BLOCK + 20
    inner = ode._scan_states(ref._dense, ref.states[:-1])[:, :, 0].T
    values = np.column_stack([ref.states[1:, 0], inner])
    floors = {}
    for k, row in enumerate(values):
        for c, value in enumerate(row):
            lowest = min(ref.states[0, 0], values[:k].min(initial=np.inf), np.delete(row, c).min())
            if value < lowest:
                floors[k, c] = float(value + lowest) / 2
    return ref, floors


def assert_cut(tr, ref, k):
    """``tr`` is ``ref`` cut by the guard at step k: everything before the step, and its end in the message."""
    assert (tr.status, tr.message) == (GUARD_STOP, f"guard fired within step ending t={ref.times.tolist()[k + 1]!r}")
    assert np.array_equal(tr.times, ref.times[: k + 1]) and np.array_equal(tr.states, ref.states[: k + 1])
    assert np.array_equal(tr._dense, ref._dense[:k])


def numpy_initial_step(rhs, t0, y0, f0, t1, rtol, atol):
    """Reference for ``ode._initial_step``: the same rule with NumPy's RMS norms."""
    y0, f0 = np.asarray(y0, dtype=float), np.asarray(f0, dtype=float)
    scale = atol + rtol * np.abs(y0)

    def rms(v):
        return float(np.sqrt(np.mean(np.square(v))))

    d0, d1 = rms(y0 / scale), rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, abs(t1 - t0))
    f1 = np.asarray(rhs(t0 + h0, tuple((y0 + h0 * f0).tolist())), dtype=float)
    d2 = rms((f1 - f0) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, abs(t1 - t0))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_initial_step_equals_the_numpy_norms(dim):
    # the first step sets the whole step sequence, so it must not move by a bit
    rng = np.random.default_rng(dim)
    for _ in range(2000):
        y0 = tuple((rng.standard_normal(dim) * np.exp(rng.uniform(-12, 12, dim))).tolist())
        f0 = tuple((rng.standard_normal(dim) * np.exp(rng.uniform(-12, 12, dim))).tolist())
        m = rng.standard_normal((dim, dim))

        def rhs(t, y):
            return tuple((m @ np.asarray(y) + t).tolist())

        args = (rhs, 0.0, y0, f0, float(rng.uniform(0.1, 100.0)), 1e-10, 1e-12)
        assert ode._initial_step(*args) == numpy_initial_step(*args)


def failing_once(call: int, failure: str) -> ODESystem:
    """Oscillator whose ``call``-th right-hand side evaluation fails once."""
    sys = oscillator()
    calls = 0

    def rhs(t, y):
        nonlocal calls
        calls += 1
        if calls == call:
            if failure == "raise":
                raise DomainError("transient failure")
            return (y[1], math.nan if failure == "nan" else math.inf)
        return sys.rhs(t, y)

    return dataclasses.replace(sys, rhs=rhs)


class TestInteriorStageFailure:
    # evaluations 1 and 2 are the initial slope and the initial-step probe;
    # 3..13 are the first attempt's stages 2..12 and 15 its first dense stage
    @pytest.mark.parametrize("failure", ["raise", "nan", "inf"])
    @pytest.mark.parametrize("call", [5, 12, 15], ids=["stage-4", "stage-11", "dense"])
    def test_transient_failure_rejects_the_attempt_only(self, call, failure):
        clean = integrate(oscillator(), (1.0, 0.0), (0.0, 2 * math.pi))
        tr = integrate(failing_once(call, failure), (1.0, 0.0), (0.0, 2 * math.pi))
        assert tr.status == COMPLETED
        assert tr.times[1] < clean.times[1]  # the first attempt was retried smaller
        assert tr.sample(2 * math.pi)[0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("failure", ["raise", "nan", "inf"])
    def test_persistent_failure_is_a_step_failure(self, failure):
        # every stage beyond t = 0.5 fails, so the steps shrink until they underflow
        sys = oscillator()

        def rhs(t, y):
            if t > 0.5:
                if failure == "raise":
                    raise DomainError("undefined beyond 0.5")
                return (y[1], math.nan if failure == "nan" else math.inf)
            return sys.rhs(t, y)

        tr = integrate(dataclasses.replace(sys, rhs=rhs), (1.0, 0.0), (0.0, 1.0))
        assert tr.status == STEP_FAILURE
        assert tr.message.startswith("step size underflow")
        assert 0.49 < tr.t_end <= 0.5
        assert np.all(np.isfinite(tr.states))


FORCED = CentralFieldConfig(time_function("1+0.3*cos(2*t)"), time_function("0.05*sin(t)"))
SHIPPED = {
    "ep": ep_system(EPConfig(time_function("1+0.5*sin(3*t)"), time_function("2"))),
    "ep-family": ep_system(
        EPConfig(time_function("(5/4)/((1+t)^2)"), time_function("(1+t)^4"))
    ),
    "oscillator": oscillator_system(time_function("1+0.5*sin(t)")),
    "third-order": third_order_system(ThirdOrderConfig(time_function("2+sin(t)"))),
    "polar": polar_system(FORCED),
    "cartesian": cartesian_system(FORCED),
}
# (system, t, state outside its domain, the domain named in the error)
OUTSIDE = {
    "ep-x=0": ("ep", 1.0, (0.0, 0.3), "x > 0"),
    "ep-x<0": ("ep", 1.0, (-0.5, 0.3), "x > 0"),
    "ep-family-x=0": ("ep-family", 1.0, (0.0, 0.3), "x > 0"),
    "polar-r=0": ("polar", 1.0, (0.0, 0.2, 0.0, 0.8), "r > 0"),
    "polar-r<0": ("polar", 1.0, (-0.5, 0.2, 0.0, 0.8), "r > 0"),
    "cartesian-origin": ("cartesian", 1.0, (0.0, 0.3, 0.0, -0.2), "((x)*(x))+((y)*(y)) > 0"),
}


def assert_same_fields(points, grid):
    """Agreement to 1e-15 of each component's largest magnitude on the sample.

    np.sin and math.sin may differ by an ulp, and a field that sums
    cancelling terms (-phi x + g/x^3) carries that ulp of its terms, not of
    its result.
    """
    assert points.shape == grid.shape
    assert np.all(np.abs(points - grid) <= 1e-15 * np.abs(grid).max(axis=0))


class TestShippedSystems:
    @pytest.mark.parametrize("name", list(SHIPPED))
    def test_compiled_rhs_matches_the_grid_evaluation(self, name):
        sys = SHIPPED[name]
        rng = np.random.default_rng(7)
        ts = rng.uniform(0.0, 5.0, 64)
        ys = rng.uniform(0.5, 2.0, (64, sys.dim))
        points = np.array([sys.rhs(t, y) for t, y in zip(ts.tolist(), ys.tolist())])
        assert_same_fields(points, sys.slopes(ts, ys))

    def test_quadrature_rhs_matches_the_grid_evaluation(self):
        tr = k_integral(FORCED, (0.0, 5.0))
        ts = np.linspace(0.0, 5.0, 64)
        points = np.array([tr.system.rhs(t, (0.0,)) for t in ts.tolist()])
        assert_same_fields(points, tr.system.slopes(ts, tr.sample(ts)))

    @pytest.mark.parametrize("case", list(OUTSIDE))
    def test_outside_the_domain_raises_on_both_paths(self, case):
        name, t, y, message = OUTSIDE[case]
        sys = SHIPPED[name]
        with pytest.raises(DomainError, match=re.escape(f"outside the domain {message}")):
            sys.rhs(t, y)
        ts = np.array([0.5, t, 1.5])
        ys = np.array([[1.0] * sys.dim, y, [1.0] * sys.dim])
        with pytest.raises(DomainError, match=re.escape(f"outside the domain {message}")):
            sys.slopes(ts, ys)

    def test_trajectory_keeps_its_system(self):
        sys = SHIPPED["ep"]
        tr = integrate(sys, (1.0, 0.0), (0.0, 1.0))
        assert tr.system is sys
        ts = np.array([0.5])
        (slope,) = tr.system.slopes(ts, tr.sample(ts))
        assert slope.shape == (2,)
        assert slope.tolist() == pytest.approx(list(sys.rhs(0.5, tuple(tr.sample(0.5)))))


def calling(sys: ODESystem) -> ODESystem:
    """``sys`` stepping by calls of its own kernel: the step that a given ``rhs`` gets."""
    return dataclasses.replace(sys, rhs=sys.rhs)


def chain(levels: int) -> ODESystem:
    """y' = sin(sin(...sin(t))): a kernel of one line per level."""
    field = var("t")
    for _ in range(levels):
        field = sin(field)
    return ODESystem(("y",), (field,))


INLINED = {
    **SHIPPED,
    "basis-pair": _pair_system(time_function("1+0.5*sin(3*t)")),
    "k-integral": k_integral(FORCED, (0.0, 5.0)).system,
}


def false_alarm() -> ODESystem:
    """Near (x, v) = (1.5e8, 1.6e8) each divisor is finite, but their sum, which the kernel watches, overflows."""
    return ODESystem(("x", "v"), (const(1.0) / (X * const(1e300)), const(1.0) / (V * const(1e300))))


def attempts(sys: ODESystem):
    """The 40 attempts (t, h, y, f) of ``test_returns_what_the_calling_step_returns``, all in the domain."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = float(rng.uniform(0.0, 5.0))
        y = tuple(rng.uniform(0.5, 2.0, sys.dim).tolist())
        h = float(10.0 ** rng.uniform(-4.0, 0.5))
        yield t, h, y, sys.rhs(t, y)


def redo_counter(sys: ODESystem, monkeypatch) -> list:
    """The dimensions of the calling steps that ``sys.step`` looks up to redo an attempt, as it runs."""
    redone = []
    monkeypatch.setitem(sys.step.__globals__, "stepper", lambda dim: redone.append(dim) or ode._stepper(dim))
    return redone


class TestInlinedStep:
    @pytest.mark.parametrize("name", list(INLINED))
    def test_returns_what_the_calling_step_returns(self, name):
        sys = INLINED[name]
        step, called = sys.step, ode._stepper(sys.dim)
        assert step.__code__ is not called.__code__  # every shipped kernel is inlined
        rng = np.random.default_rng(11)
        accepted = rejected = 0
        for _ in range(40):
            t = float(rng.uniform(0.0, 5.0))
            y = tuple(rng.uniform(0.5, 2.0, sys.dim).tolist())
            h = float(10.0 ** rng.uniform(-4.0, 0.5))
            f = sys.rhs(t, y)
            got = step(sys.rhs, t, h, y, f, 1e-10, 1e-12)
            assert got == called(sys.rhs, t, h, y, f, 1e-10, 1e-12)
            accepted += got[0] <= 1.0
            rejected += got[1] is None
        assert accepted and rejected

    @pytest.mark.parametrize("case", list(OUTSIDE))
    def test_outside_the_domain_rejects_on_both_steps(self, case):
        name, t, y, _ = OUTSIDE[case]
        sys = SHIPPED[name]
        f = (0.0,) * sys.dim  # so the first stage is at the state itself
        for step in (sys.step, ode._stepper(sys.dim)):
            assert step(sys.rhs, t, 1e-3, y, f, 1e-10, 1e-12) == (math.inf, None, None, None)

    def test_a_false_alarm_keeps_its_values_on_both_steps(self):
        sys = false_alarm()
        calls = []
        for function in (sys.step, sys.rhs):
            fallback = function.__globals__["fallback"]
            function.__globals__["fallback"] = lambda *args, fallback=fallback: calls.append(args) or fallback(*args)
        t, y = 0.0, (1.5e8, 1.6e8)
        f = sys.rhs(t, y)
        assert f == (1.0 / (1.5e8 * 1e300), 1.0 / (1.6e8 * 1e300)) and len(calls) == 1
        got = sys.step(sys.rhs, t, 0.5, y, f, 1e-10, 1e-12)
        assert got[0] <= 1.0 and len(calls) == 1 + 15  # every stage of the accepted step
        assert got == ode._stepper(2)(sys.rhs, t, 0.5, y, f, 1e-10, 1e-12)
        assert len(calls) == 1 + 15 + 15
        stages = [(t, y)] + 2 * [(t + c * 0.5, state) for c, (_, state) in zip(ode._C[1:].tolist(), calls[1:16])]
        assert calls == stages and all(len(state) == 2 for _, state in calls)  # each stage's point (t, (x, v))
        assert f == tuple(value.item() for value in evaluate(sys.fields, {"t": t, "x": y[0], "v": y[1]}))

    @pytest.mark.parametrize("name", list(INLINED))
    def test_an_attempt_is_redone_only_where_the_kernel_doubts(self, name, monkeypatch):
        sys = INLINED[name]
        assert "fallback" not in sys.step.__code__.co_names
        redone, doubts, fallback = redo_counter(sys, monkeypatch), [], sys.rhs.__globals__["fallback"]
        monkeypatch.setitem(sys.rhs.__globals__, "fallback", lambda *args: doubts.append(args) or fallback(*args))
        doubted, redos = [], []
        for i, (t, h, y, f) in enumerate(attempts(sys)):
            before = len(doubts)
            ode._stepper(sys.dim)(sys.rhs, t, h, y, f, 1e-10, 1e-12)
            doubted += [i] * (len(doubts) > before)
            before = len(redone)
            sys.step(sys.rhs, t, h, y, f, 1e-10, 1e-12)
            redos += [i] * (len(redone) - before)
        # every attempt starts in the domain; only a long step leaves it
        assert redos == doubted and len(doubted) <= 1

    @pytest.mark.parametrize("case", [*OUTSIDE, "false-alarm"])
    def test_a_doubtful_attempt_is_redone_by_the_calling_step(self, case, monkeypatch):
        if case in OUTSIDE:
            name, t, y, _ = OUTSIDE[case]
            sys, h = SHIPPED[name], 1e-3
            f = (0.0,) * sys.dim
        else:
            sys, t, y, h = false_alarm(), 0.0, (1.5e8, 1.6e8), 0.5
            f = sys.rhs(t, y)
        redone = redo_counter(sys, monkeypatch)
        got = sys.step(sys.rhs, t, h, y, f, 1e-10, 1e-12)
        assert redone == [sys.dim]
        assert got == ode._stepper(sys.dim)(sys.rhs, t, h, y, f, 1e-10, 1e-12)

    def test_the_calling_step_is_built_only_to_redo_an_attempt(self):
        # y_i' = y_(i+1), y_8' = -y_0: a dimension no other test steps in
        names = tuple(f"y{i}" for i in range(9))
        sys = ODESystem(names, (*map(var, names[1:]), -var(names[0])))
        before = ode._stepper.cache_info().misses
        tr = integrate(sys, (1.0,) * 9, (0.0, 1.0))
        assert tr.status == COMPLETED
        assert ode._stepper.cache_info().misses == before + 1  # the inlined step only
        ode._stepper(9)
        assert ode._stepper.cache_info().misses == before + 2  # the calling step, built only now

    def test_systems_of_one_shape_share_the_code(self):
        first = oscillator_system(time_function("1+0.5*sin(3*t)"))
        second = oscillator_system(time_function("2+0.25*sin(5*t)"))
        assert first.step.__code__ is second.step.__code__
        assert first.step.__globals__ is not second.step.__globals__  # each its own constants
        for sys in (first, second):
            tr, ref = (integrate(s, (1.0, 0.0), (0.0, 20.0)) for s in (sys, calling(sys)))
            assert (tr.status, tr.message) == (ref.status, ref.message) == (COMPLETED, "")
            assert np.array_equal(tr.times, ref.times) and np.array_equal(tr.states, ref.states)
            assert np.array_equal(tr._dense, ref._dense)
        assert not np.array_equal(*(integrate(s, (1.0, 0.0), (0.0, 1.0)).states[-1] for s in (first, second)))

    def test_a_kernel_above_the_bound_is_called(self):
        inlined, called = chain(ode._INLINED_LINES), chain(ode._INLINED_LINES + 1)
        assert inlined.step.__code__ is not ode._stepper(1).__code__
        assert called.step is ode._stepper(1)
        tr, ref = (integrate(s, (0.0,), (0.0, 2.0)) for s in (called, calling(called)))
        assert np.array_equal(tr.times, ref.times) and np.array_equal(tr._dense, ref._dense)

    def test_a_given_rhs_is_called(self):
        sys = calling(SHIPPED["ep"])
        assert sys.step is ode._stepper(2)
