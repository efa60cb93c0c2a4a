"""Adaptive Dormand-Prince 5(4) integration with dense output.

The stepper is the classic embedded pair: fifth-order propagation, fourth-
order error estimate, FSAL, PI step-size control, and a quartic per-step
interpolant (the standard dense-output coefficient matrix for this tableau).
Trajectories keep the interpolant for every accepted step, remember the
right-hand side that produced them, and carry a termination status:

    "completed"     reached the end of the requested interval
    "guard-stop"    a guard predicate fired; the offending step is discarded,
                    so no retained or interpolated sample violates the guard
    "step-failure"  step size underflow or step budget exhausted; the
                    trajectory holds everything up to the last good node

Trajectories sample whole grids at once, and every curve in the workbench
(trajectory, time function, basis solution, quadratic form, square root)
is evaluated through one method, ``jet(ts, k)``: an array of shape
(k+1, len(ts)) whose row j is the j-th derivative on the grid.

Residual checking follows one rule everywhere in the workbench: the
trajectory's own slope at a time t is the producing right-hand side
evaluated at the interpolated state (never a re-differentiated
interpolant), and the residual of a candidate system is the largest
mismatch between that slope and the candidate's right-hand side over a
grid.  Every residual is reduced by ``worst_residual``, which refuses an
empty grid and a non-finite value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import DomainError

COMPLETED = "completed"
GUARD_STOP = "guard-stop"
STEP_FAILURE = "step-failure"

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Dense output: y(t0 + th*h) = y0 + h * (K^T P) @ [th, th^2, th^3, th^4].
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_BETA = 0.04  # PI stabilization
_EXPO = 0.2 - 0.75 * _BETA
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

_RHS_ERRORS = (DomainError, ZeroDivisionError, OverflowError)


@dataclass(frozen=True)
class ODESystem:
    """First-order system y' = rhs(t, y) with an optional abort guard."""

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    guard: Optional[Callable[[float, np.ndarray], bool]] = None


@dataclass(frozen=True)
class IntegrationSettings:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000
    x_min: float = 1e-6  # guard threshold used by positivity-guarded systems

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


class Trajectory:
    """Accepted nodes plus per-step dense output of a single integration."""

    def __init__(self, times, states, dense, steps, rhs, status, message=""):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        # interpolant coefficients, one (dim, 4) block per accepted step
        self._dense = np.asarray(dense, dtype=float).reshape(-1, self.dim, 4)
        self._steps = np.asarray(steps, dtype=float)
        self.rhs = rhs
        self.status = status
        self.message = message

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def sample(self, t) -> np.ndarray:
        """State at t: shape (dim,) for a scalar t, (n, dim) for n times.

        Node times reproduce the stored state exactly; a time outside the
        trajectory's range raises DomainError.
        """
        ts = np.asarray(t, dtype=float).reshape(-1)
        times = self.times
        outside = ~((times[0] <= ts) & (ts <= times[-1]))
        if outside.any():
            bad = float(ts[outside][0])
            raise DomainError(
                f"t={bad!r} outside trajectory range [{times[0]!r}, {times[-1]!r}]"
            )
        k = np.searchsorted(times, ts, side="right") - 1  # times[k] <= t
        out = self.states[k]
        inner = times[k] != ts  # then t < times[-1], so step k exists
        if inner.any():
            i = k[inner]
            h = self._steps[i]
            th = (ts[inner] - times[i]) / h
            p = np.stack([th, th * th, th**3, th**4], axis=-1)
            out[inner] += h[:, None] * np.einsum("ndk,nk->nd", self._dense[i], p)
        return out[0] if np.ndim(t) == 0 else out

    def derivative(self, t) -> np.ndarray:
        """Producing rhs at the interpolated state; shaped like sample(t)."""
        ts = np.asarray(t, dtype=float).reshape(-1)
        ys = self.sample(ts)
        slopes = np.asarray([self.rhs(s, y) for s, y in zip(ts, ys)], dtype=float).reshape(ys.shape)
        return slopes[0] if np.ndim(t) == 0 else slopes

    def jet(self, ts, k: int) -> np.ndarray:
        """Derivatives 0..k of a derivative-chain state on the grid ``ts``.

        For a state (x, x', ..., x^(dim-1)) row j < dim is state column j and
        row dim is the last component of the producing right-hand side, so
        k may be at most dim.  Returns shape (k+1, len(ts)).
        """
        if not 0 <= k <= self.dim:
            raise ValueError(f"derivative order {k} unavailable from this trajectory")
        rows = self.sample(ts).T
        if k == self.dim:
            rows = np.vstack([rows, self.derivative(ts)[:, -1]])
        return rows[: k + 1]

    def grid(self, n: int = 200) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, n)


def worst_residual(values) -> float:
    """Largest |value|: the one reduction behind every residual verdict.

    Raises ValueError when there is nothing to reduce and DomainError when
    a value is NaN or infinite, so no verdict rests on zero samples or on a
    non-finite number.
    """
    mags = np.abs(np.asarray(values, dtype=float))
    if mags.size == 0:
        raise ValueError("empty residual grid")
    worst = float(np.max(mags))
    if not math.isfinite(worst):
        raise DomainError(f"non-finite residual ({worst!r})")
    return worst


def _initial_step(rhs, t0, y0, f0, t1, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, abs(t1 - t0))
    try:
        y1 = y0 + h0 * f0
        f1 = np.asarray(rhs(t0 + h0, y1), dtype=float)
        d2 = _rms((f1 - f0) / scale) / h0
    except _RHS_ERRORS:
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t1 - t0))


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def integrate(
    sys: ODESystem,
    y0: Sequence[float],
    interval: tuple[float, float],
    settings: IntegrationSettings | None = None,
) -> Trajectory:
    """Integrate forward over ``interval``; never raises for step failures.

    Guard violations and step-size underflow are reported through the
    trajectory status so callers always get the prefix that was computed.
    Returned states are always finite.
    """
    settings = settings or IntegrationSettings()
    t0, t1 = float(interval[0]), float(interval[1])
    if not (t0 < t1):
        raise ValueError(f"need t0 < t1, got {interval!r}")
    y = np.asarray(y0, dtype=float)
    if y.shape != (sys.dim,):
        raise ValueError(f"initial state has shape {y.shape}, system dim is {sys.dim}")
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")

    times = [t0]
    states = [y.copy()]
    dense = []
    steps = []

    def done(status, message=""):
        return Trajectory(times, states, dense, steps, sys.rhs, status, message)

    if sys.guard is not None and sys.guard(t0, y):
        return done(GUARD_STOP, f"guard fired at initial state t={t0!r}")

    t = t0
    try:
        f = np.asarray(sys.rhs(t, y), dtype=float)
    except _RHS_ERRORS as e:
        return done(STEP_FAILURE, f"right-hand side undefined at t={t!r}: {e}")
    if not np.all(np.isfinite(f)):
        return done(STEP_FAILURE, f"non-finite right-hand side at t={t!r}")

    rtol, atol = settings.rtol, settings.atol
    h = _initial_step(sys.rhs, t0, y, f, t1, rtol, atol)
    facold = 1e-4
    rejected = False
    K = np.empty((7, sys.dim))

    for _ in range(settings.max_steps):
        if t >= t1:
            return done(COMPLETED)
        hmin = 1e-14 * max(1.0, abs(t))
        if h < hmin:
            return done(STEP_FAILURE, f"step size underflow at t={t!r}")
        h = min(h, t1 - t)

        K[0] = f
        bad = False
        try:
            for i in range(1, 6):
                K[i] = sys.rhs(t + _C[i] * h, y + h * (_A[i] @ K[:i]))
            y_new = y + h * (_B[:6] @ K[:6])
            K[6] = sys.rhs(t + h, y_new)
        except _RHS_ERRORS:
            bad = True

        if not bad and np.all(np.isfinite(K)) and np.all(np.isfinite(y_new)):
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err_norm = _rms(h * (_E @ K) / scale)
        else:
            err_norm = math.inf

        if not (err_norm <= 1.0):
            # reject
            fac11 = err_norm**_EXPO if math.isfinite(err_norm) else 10.0
            h = h / min(1 / _MIN_FACTOR, fac11 / _SAFETY)
            rejected = True
            continue

        # accepted: guard scan over the step before committing it
        Q = K.T @ _P
        if sys.guard is not None:
            fired = sys.guard(t + h, y_new)
            if not fired:
                for th in (0.25, 0.5, 0.75):
                    p = np.array([th, th * th, th**3, th**4])
                    if sys.guard(t + th * h, y + h * (Q @ p)):
                        fired = True
                        break
            if fired:
                return done(GUARD_STOP, f"guard fired within step ending t={t + h!r}")

        times.append(t + h)
        states.append(y_new.copy())
        dense.append(Q)
        steps.append(h)
        t = t + h
        y = y_new
        f = K[6].copy()  # FSAL

        if err_norm == 0.0:
            fac = _MIN_FACTOR  # h / fac = max growth
        else:
            fac11 = err_norm**_EXPO
            fac = fac11 / facold**_BETA
        fac = max(1 / _MAX_FACTOR, min(1 / _MIN_FACTOR, fac / _SAFETY))
        h_new = h / fac
        if rejected:
            h_new = min(h_new, h)
            rejected = False
        facold = max(err_norm, 1e-4)
        h = h_new

    if t >= t1:
        return done(COMPLETED)
    return done(STEP_FAILURE, f"step budget exhausted at t={t!r}")


def residual(sys: ODESystem, tr: Trajectory, grid: Sequence[float]) -> float:
    """Largest |trajectory slope - sys.rhs| over the grid (max over components).

    The universal verdict: a trajectory of system P checked against system Q
    measures max |rhs_P - rhs_Q| along the orbit, which is ~0 for Q = P and
    the honest defect size otherwise.
    """
    grid = np.asarray(grid, dtype=float)
    ys = tr.sample(grid)
    candidate = np.asarray([sys.rhs(t, y) for t, y in zip(grid, ys)], dtype=float)
    return worst_residual(tr.derivative(grid) - candidate.reshape(ys.shape))


def write_csv(tr: Trajectory, path, names: Sequence[str] = ("x", "xdot")) -> None:
    """Node-by-node CSV dump: header ``t,<names...>``, 17 significant digits."""
    if len(names) != tr.dim:
        raise ValueError(f"{len(names)} names for state dimension {tr.dim}")
    lines = ["t," + ",".join(names)]
    for t, y in zip(tr.times, tr.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *y)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
