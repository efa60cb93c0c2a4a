"""Adaptive Dormand-Prince 8(5,3) integration with dense output.

The stepper is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sections
II.5 and II.10): eighth-order propagation over 12 stages plus FSAL, the
combined fifth- and third-order error estimate, order-8 step-size control,
and a seventh-order per-step interpolant that costs three extra stages on
accepted steps only.  Each interpolant is kept as monomial coefficients of
th^1..th^7 (th the fraction of the step), one (n_steps, dim, 7) array per
trajectory.  Trajectories remember the right-hand side that produced them
and carry a termination status:

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
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import DomainError

COMPLETED = "completed"
GUARD_STOP = "guard-stop"
STEP_FAILURE = "step-failure"

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# sections II.5 and II.10).  Rows 1..11 are the propagating stages, row 12
# gives the eighth-order solution, and rows 13..15 are the three extra stages
# of the seventh-order dense output; K[12] is f(t + h, y_new), which FSAL
# reuses as the next step's K[0].
_C = np.array(
    [
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
        0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
        0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
        0.7777777777777778,
    ]
)
_A = (
    np.array([]),
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792]),
    np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242]),
    np.array(
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125]
    ),
    np.array(
        [
            0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
            -0.015319437748624402, 0.008273789163814023,
        ]
    ),
    np.array(
        [
            0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
            27.59209969944671, 20.154067550477894, -43.48988418106996,
        ]
    ),
    np.array(
        [
            0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
            21.230051448181193, 15.279233632882423, -33.28821096898486,
            -0.020331201708508627,
        ]
    ),
    np.array(
        [
            -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
            -8.149787010746927, -18.52006565999696, 22.739487099350505,
            2.4936055526796523, -3.0467644718982196,
        ]
    ),
    np.array(
        [
            2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
            -17.9589318631188, 27.94888452941996, -2.8589982771350235,
            -8.87285693353063, 12.360567175794303, 0.6433927460157636,
        ]
    ),
    np.array(
        [
            0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
            1.8915178993145003, -5.801203960010585, 0.3111643669578199,
            -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
        ]
    ),
    np.array(
        [
            0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
            -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
            0.00820105229563469, 0.007567897660545699, -0.008298,
        ]
    ),
    np.array(
        [
            0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
            0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
            -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
            0.1413124436746325,
        ]
    ),
    np.array(
        [
            -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
            7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
            -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
        ]
    ),
)
_B = _A[12]
# error estimators: E5 is the fifth-order difference, E3 the third-order one
_E5 = np.array(
    [
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
        -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
        0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
    ]
)
_E3 = _B - np.array(
    [0.2440944881889764, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0, 0.022058823529411766]
)
# dense output: y(t0 + th*h) = y0 + th*(F0 + (1-th)*(F1 + th*(F2 + ... (F5 + th*F6))))
# with F0 = y1 - y0, F1 = h*f0 - F0, F2 = 2*F0 - h*(f0 + f1) and F3..F6 = h * _D @ K
_D = np.array(
    [
        [
            -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
            -3.0689499459498917, 2.38466765651207, 2.117034582445028,
            -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
            -0.08899033645133331, 18.148505520854727, -9.194632392478356,
            -4.436036387594894,
        ],
        [
            10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
            165.20045171727028, -374.5467547226902, -22.113666853125306,
            7.733432668472264, -30.674084731089398, -9.332130526430229,
            15.697238121770845, -31.139403219565178, -9.35292435884448,
            35.81684148639408,
        ],
        [
            19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
            -189.17813819516758, 527.8081592054236, -11.57390253995963,
            6.8812326946963, -1.0006050966910838, 0.7777137798053443,
            -2.778205752353508, -60.19669523126412, 84.32040550667716,
            11.99229113618279,
        ],
        [
            -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
            -231.5293791760455, 357.6391179106141, 93.40532418362432,
            -37.45832313645163, 104.0996495089623, 29.8402934266605,
            -43.53345659001114, 96.32455395918828, -39.17726167561544,
            -149.72683625798564,
        ],
    ]
)
_DEGREE = 7
# F_k multiplies th^(k//2 + 1) * (1-th)^((k+1)//2); row k holds that product's
# coefficients of th^1..th^7, so the monomial coefficients are F^T @ _MONOMIAL
_MONOMIAL = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0],
        [1, -1, 0, 0, 0, 0, 0],
        [0, 1, -1, 0, 0, 0, 0],
        [0, 1, -2, 1, 0, 0, 0],
        [0, 0, 1, -2, 1, 0, 0],
        [0, 0, 1, -3, 3, -1, 0],
        [0, 0, 0, 1, -3, 3, -1],
    ],
    dtype=float,
)
_POWERS = np.arange(1, _DEGREE + 1)
# interior points of the guard scan, and their rows of th^1..th^7
_SCAN_AT = (0.25, 0.5, 0.75)
_SCAN = np.array(_SCAN_AT)[:, None] ** _POWERS

_SAFETY = 0.9
_BETA = 0.04  # PI stabilization
_EXPO = 1 / 8 - 0.2 * _BETA
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
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.x_min) and self.x_min >= 0):
            raise ValueError(f"x_min must be finite and >= 0, got {self.x_min!r}")
        steps = self.max_steps
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {steps!r}")


class Trajectory:
    """Accepted nodes plus per-step dense output of a single integration."""

    def __init__(self, times, states, dense, steps, rhs, status, message=""):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        # coefficients of th^1..th^7, one (dim, 7) block per accepted step
        self._dense = np.asarray(dense, dtype=float).reshape(-1, self.dim, _DEGREE)
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
            th = (ts[inner] - times[i]) / self._steps[i]
            out[inner] += np.einsum("ndk,nk->nd", self._dense[i], th[:, None] ** _POWERS)
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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, abs(t1 - t0))


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def _error_norm(h, K, scale) -> float:
    """Hairer's combined norm of the fifth- and third-order estimates."""
    err5 = np.sum(np.square((_E5 @ K) / scale))
    err3 = np.sum(np.square((_E3 @ K) / scale))
    if err5 == 0.0 and err3 == 0.0:
        return 0.0
    return float(h * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale)))


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
    K = np.empty((16, sys.dim))

    for _ in range(settings.max_steps):
        if t >= t1:
            return done(COMPLETED)
        hmin = 1e-14 * max(1.0, abs(t))
        if h < hmin:
            return done(STEP_FAILURE, f"step size underflow at t={t!r}")
        h = min(h, t1 - t)

        K[0] = f
        err_norm = math.inf
        try:
            for i in range(1, 12):
                K[i] = sys.rhs(t + _C[i] * h, y + h * (_A[i] @ K[:i]))
            y_new = y + h * (_B @ K[:12])
            if np.all(np.isfinite(K[:12])) and np.all(np.isfinite(y_new)):
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
                err_norm = _error_norm(h, K[:12], scale)
            if err_norm <= 1.0:
                # accepted: f at the new node, then the dense-output stages
                K[12] = sys.rhs(t + h, y_new)
                for i in range(13, 16):
                    K[i] = sys.rhs(t + _C[i] * h, y + h * (_A[i] @ K[:i]))
                if not np.all(np.isfinite(K[12:])):
                    err_norm = math.inf
        except _RHS_ERRORS:
            err_norm = math.inf

        if not (err_norm <= 1.0):
            # reject
            fac11 = err_norm**_EXPO if math.isfinite(err_norm) else 10.0
            h = h / min(1 / _MIN_FACTOR, fac11 / _SAFETY)
            rejected = True
            continue

        # accepted: guard scan over the step before committing it
        dy = y_new - y
        F = np.empty((_DEGREE, sys.dim))
        F[0] = dy
        F[1] = h * f - dy
        F[2] = 2 * dy - h * (f + K[12])
        F[3:] = h * (_D @ K)
        Q = F.T @ _MONOMIAL
        if sys.guard is not None and (
            sys.guard(t + h, y_new)
            or any(sys.guard(t + th * h, y + Q @ p) for th, p in zip(_SCAN_AT, _SCAN))
        ):
            return done(GUARD_STOP, f"guard fired within step ending t={t + h!r}")

        times.append(t + h)
        states.append(y_new.copy())
        dense.append(Q)
        steps.append(h)
        t = t + h
        y = y_new
        f = K[12].copy()  # FSAL

        fac = err_norm**_EXPO / facold**_BETA
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
