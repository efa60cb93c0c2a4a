"""Adaptive Dormand-Prince 8(5,3) integration with dense output.

The stepper is DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sections
II.5 and II.10): eighth-order propagation over 12 stages plus FSAL, the
combined fifth- and third-order error estimate, order-8 step-size control,
and a seventh-order per-step interpolant that costs three extra stages on
accepted steps only.  Each interpolant is kept as monomial coefficients of
th^1..th^7 (th the fraction of the step), one (n_steps, dim, 7) array per
trajectory.

A system is data: one expression field per state component over
("t", *state names), and domain trees that must stay positive; a domain
tree that is one state variable (the EP x, the polar r) is floored: it
must stay >= ``settings.x_min``, or the run stops.  Its
``rhs(t, y)`` is the scalar kernel compiled from them: ``y`` a sequence of
``dim`` floats, the result a tuple of ``dim`` floats, and DomainError
(never NaN or inf) where the system is undefined; it is compiled when
first read.  One attempted step is one generated straight-line Python
function, built beside ``rhs`` from the same walk of the fields: each of
its 15 stages is the kernel's bare body on that stage's (t, state)
locals, without a call.  Where the kernel would fall back (its body
raises, or its watched sum is not finite) the step hands the whole
attempt to its reference, the calling step, so every attempt returns
what the calling step returns.  Its code is generated once per kernel
text and shared by every system of that shape, each running it over its
own constants.  The calling step calls ``rhs`` once per stage, with code
generated once per state dimension when first needed; a system given an
``rhs`` (instrumentation), or whose kernel is longer than
``_INLINED_LINES``, steps with it.  A stage whose ``rhs`` raises, or a
non-finite stage, rejects the attempt.

The step only steps: it computes what step control reads (the stages,
the error norm, the new state and its slope) and returns the values of
the stages that the interpolant reads.  ``integrate`` collects them;
after every ``_BLOCK`` accepted steps, and when the run ends, one NumPy
pass builds the pending steps' interpolants, each coefficient the float
that the unrolled ``_terms`` source of its row gives on Python floats.
The floor scan compares each accepted step's end with x_min before the
step is kept, and the same pass compares its floored components at 1/4,
1/2 and 3/4 of the step on the interpolant.  A run is cut at the first
step that goes below the floor within, as if it had stopped there, after
running on for at most one block.

Trajectories remember the system that produced them and carry a
termination status:

    "completed"     reached the end of the requested interval
    "guard-stop"    a state fell below the floor; the offending step is discarded,
                    so no retained or interpolated sample is below it
    "step-failure"  step size underflow or step budget exhausted; the
                    trajectory holds everything up to the last good node

Trajectories sample whole grids at once (or one time, bit-identically to
a one-point grid), and every curve in the workbench
(trajectory, time function, basis solution, quadratic form, square root)
is evaluated through one method, ``jet(ts, k)``: an array of shape
(k+1, len(ts)) whose row j is the j-th derivative on the grid.

Residual checking follows one rule everywhere in the workbench: the
trajectory's own slope at a time t is the producing system's fields
evaluated at the interpolated state (never a re-differentiated
interpolant), and the residual of a candidate system is the largest
mismatch between that slope and the candidate's fields, both evaluated on
the whole grid at once.  Every residual is reduced by ``worst_residual``,
which refuses an empty grid and a non-finite value.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import types
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import DomainError, Expr, KernelText, Var, evaluate, kernel_parts

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
# the stages the interpolant reads, which a step returns: the columns of _D
# that are nonzero (in every row), K0 and K5..K15, among them K12 for F2
_DENSE_STAGES = tuple(np.flatnonzero(_D.any(axis=0)).tolist())
# interior points of the floor scan, as fractions of the step
_SCAN_AT = (0.25, 0.5, 0.75)
# Accepted steps whose interpolants are built and scanned in one NumPy pass.
# Blocks of 128 to 1024 steps integrate equally fast; smaller ones pay the
# pass's fixed cost more often, and larger ones raise a long run's peak
# memory and let a run go on further past a step that went below the floor.
_BLOCK = 256
X_MIN = 1e-6  # default floor: how near the singular axis x = 0 runs and checks may come

_SAFETY = 0.9
_BETA = 0.04  # PI stabilization
_EXPO = 1 / 8 - 0.2 * _BETA
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

_RHS_ERRORS = (DomainError, ZeroDivisionError, OverflowError)


class _CompiledOnFirstRead:
    """``ODESystem.rhs`` when none is given, and ``ODESystem.step``: built together when first read.

    A non-data descriptor, so what it stores in the instance's ``__dict__``
    is found there on every later read.  Read on the class (as the dataclass
    does for the field's default) it is None.  The fields are walked once:
    ``rhs`` is their kernel and ``step`` the step with that kernel inlined
    (``_inlined_step``).  A system given its ``rhs`` steps by calling it.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, system, owner=None):
        if system is None:
            return None
        built = system.__dict__
        if "rhs" in built:
            built["step"] = _stepper(system.dim)
        else:
            parts = kernel_parts(system.fields, ("t", system.names), positive=system.domain)
            built["rhs"] = parts.kernel()
            built["step"] = _inlined_step(system.dim, parts)
        return built[self.name]


@dataclass(frozen=True)
class ODESystem:
    """First-order system y' = f(t, y), written once as expression fields.

    ``fields[i]`` is the tree of y_i' over ("t", *names); each tree in
    ``domain`` must stay > 0, and a state variable among them >= x_min.
    ``rhs`` is compiled from them when first read unless given (only
    instrumentation passes one), so a system that is never integrated
    compiles nothing; ``step``, the DOP853 attempt that ``integrate``
    makes, is built beside it.
    """

    names: tuple[str, ...]
    fields: tuple[Expr, ...]
    domain: tuple[Expr, ...] = ()
    rhs: Optional[Callable[[float, Sequence[float]], tuple[float, ...]]] = _CompiledOnFirstRead()
    step = _CompiledOnFirstRead()  # not a field: built with rhs, or calling a given one

    def __post_init__(self):
        if self.__dict__["rhs"] is None:
            del self.__dict__["rhs"]  # the class's descriptor compiles it when read

    @property
    def dim(self) -> int:
        return len(self.fields)

    @property
    def floored(self) -> tuple[int, ...]:
        """The indices of the state variables that are domain trees, in state order."""
        bounded = {tree.name for tree in self.domain if type(tree) is Var}
        return tuple(i for i, name in enumerate(self.names) if name in bounded)

    def slopes(self, ts, ys) -> np.ndarray:
        """The fields at the points (ts[i], ys[i]), as an (n, dim) array.

        One NumPy operation per distinct node; DomainError where a domain
        tree is not positive.
        """
        env = {"t": ts, **{name: ys[:, i] for i, name in enumerate(self.names)}}
        return np.column_stack(evaluate(self.fields, env, self.domain))


@dataclass(frozen=True)
class IntegrationSettings:
    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 1_000_000
    x_min: float = X_MIN  # floor of the state variables that are domain trees

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

    def __init__(self, times, states, dense, steps, system, status, message=""):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        # coefficients of th^1..th^7, one (dim, 7) block per accepted step
        self._dense = np.asarray(dense, dtype=float).reshape(-1, self.dim, _DEGREE)
        self._steps = np.asarray(steps, dtype=float)
        self.system = system
        self.status = status
        self.message = message
        self._nodes = None  # the node times as floats, for scalar reads

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
        trajectory's range raises DomainError.  A scalar t (a float or an
        int) or a one-point grid bisects the node times as a list and reads
        one step's interpolant with the grid's arithmetic, so it equals the
        read of t within any longer grid bit for bit.
        """
        if isinstance(t, (float, int)):
            return self._sample_at(float(t))
        ts = np.asarray(t, dtype=float).reshape(-1)
        if len(ts) == 1:
            out = self._sample_at(float(ts[0]))
            return out if np.ndim(t) == 0 else out[None]
        times = self.times
        outside = ~((times[0] <= ts) & (ts <= times[-1]))
        if outside.any():
            self._outside(float(ts[outside][0]))
        k = np.searchsorted(times, ts, side="right") - 1  # times[k] <= t
        out = self.states[k]
        inner = times[k] != ts  # then t < times[-1], so step k exists
        if inner.any():
            i = k[inner]
            th = (ts[inner] - times[i]) / self._steps[i]
            out[inner] += np.einsum("ndk,nk->nd", self._dense[i], th[:, None] ** _POWERS)
        return out

    def _sample_at(self, t: float) -> np.ndarray:
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self.times.tolist()
        if not nodes[0] <= t <= nodes[-1]:
            self._outside(t)
        k = bisect.bisect_right(nodes, t) - 1  # nodes[k] <= t
        if nodes[k] == t:
            return self.states[k].copy()
        th = np.array([[(t - nodes[k]) / self._steps[k]]])
        return self.states[k] + np.einsum("ndk,nk->nd", self._dense[k : k + 1], th**_POWERS)[0]

    def _outside(self, t: float):
        lo, hi = self.times[[0, -1]].tolist()
        raise DomainError(f"t={t!r} outside trajectory range [{lo!r}, {hi!r}]")

    def jet(self, ts, k: int) -> np.ndarray:
        """Derivatives 0..k of the first state column on the grid ``ts``.

        Rows 0..c are state columns and row c+1 is field c, where the chain
        length c counts the leading fields that are the next state variable
        (c = dim-1 for (x, x', ..., x^(dim-1))), so k may be at most c+1.
        Returns shape (k+1, len(ts)); a scalar t is the grid [t].
        """
        fields, names = self.system.fields, self.system.names[1:]
        chain = 0  # names are compared, so no Var node is built
        while chain < len(names) and type(f := fields[chain]) is Var and f.name == names[chain]:
            chain += 1
        if not 0 <= k <= chain + 1:
            raise ValueError(f"derivative order {k} unavailable from this trajectory")
        ts = np.asarray(ts, dtype=float).reshape(-1)
        states = self.sample(ts)
        rows = states.T[: chain + 1]
        if k == chain + 1:
            rows = np.vstack([rows, self.system.slopes(ts, states)[:, chain]])
        return rows[: k + 1]

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, n)

    def columns(self, cols: slice, system: ODESystem) -> "Trajectory":
        """State columns ``cols`` as a trajectory of ``system``: views on this one's arrays."""
        return Trajectory(
            self.times, self.states[:, cols], self._dense[:, cols], self._steps,
            system, self.status, self.message,
        )


def finite_interval(interval) -> tuple[float, float]:
    """The ends of ``interval`` as floats t0 < t1 with a finite width t1 - t0; ValueError otherwise.

    The one interval rule; it also refuses an infinite or NaN end, whose width is not finite.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    if not (t0 < t1 and math.isfinite(t1 - t0)):
        raise ValueError(f"interval must be finite, with t0 < t1 and t1 - t0 finite, got {interval!r}")
    return t0, t1


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
    # RMS norms over floats, each sum of squares taken in index order
    scale = [atol + rtol * abs(y) for y in y0]
    n = len(scale)
    d0 = d1 = 0.0
    for y, f, s in zip(y0, f0, scale):
        d0 += (y / s) * (y / s)
        d1 += (f / s) * (f / s)
    d0, d1 = math.sqrt(d0 / n), math.sqrt(d1 / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, abs(t1 - t0))
    try:
        f1 = rhs(t0 + h0, tuple(y + h0 * f for y, f in zip(y0, f0)))
        d2 = 0.0
        for a, b, s in zip(f0, f1, scale):
            d2 += ((b - a) / s) * ((b - a) / s)
        d2 = math.sqrt(d2 / n) / h0
    except _RHS_ERRORS:
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, abs(t1 - t0))


def _terms(coeffs, names) -> str:
    """Source of sum(c * name) over the nonzero coefficients, left to right."""
    src = ""
    for c, name in zip(map(float, coeffs), names):
        if c:
            term = name if abs(c) == 1.0 else f"{abs(c)!r}*{name}"
            src += (" - " if c < 0 else " + ") + term
    return src[3:] if src.startswith(" + ") else "-" + src[3:]


# The names a generated step refers to besides its locals; a step with a
# kernel inlined runs over these, the kernel's namespace and ``stepper``.
_STEP_NAMES = {
    "_RHS_ERRORS": _RHS_ERRORS, "inf": math.inf, "isfinite": math.isfinite, "sqrt": math.sqrt,
    "abs": abs, "max": max,
}
# A kernel of more body lines than this is called from each stage, not
# inlined: each of the 15 stages repeats the body, and compiling a step
# holds a few KB per generated line until it is done, which sets a run's
# peak memory.  Every kernel of the long_orbit and superposition
# benchmarks has at most 13; two of scenarios' have 45 and 53.
_INLINED_LINES = 20


@functools.lru_cache(maxsize=256)
def _stepper(dim: int, kernel: KernelText | None = None):
    """Generated straight-line code for DOP853 steps on a ``dim``-float state.

    ``step(rhs, t, h, y, f, rtol, atol)``, the function returned, makes one
    attempted step from the state ``y`` with slope ``f`` (sequences of
    floats), keeping every stage value in a float local; the stage sums and
    the error estimators are unrolled over the nonzero tableau entries and
    summed left to right, as in Hairer's code.  It returns
    ``(err, y_new, f_new, stages)``: the error norm and, on acceptance
    (err <= 1), the new state, the slope there (the next step's first
    stage) and the 12*dim values of the stages ``_DENSE_STAGES``, stage by
    stage, that ``_interpolants`` turns into the step's interpolant; on
    rejection the last three are None.  A right-hand side that raises, or a
    non-finite stage or new state, gives err = inf.

    Each stage calls ``rhs(t, state)``, unless ``kernel`` is the text of
    ``rhs``, a system's kernel over ("t", names): then each stage is that
    kernel's bare body on the stage's locals, and where the kernel would
    doubt (a ``SIGNALLED`` exception, or a watched sum that is not
    finite) the step returns what ``stepper(dim)``, the calling step,
    returns for the same attempt.  It reads ``rhs`` only then, and refers
    to ``stepper`` and to the kernel's constants by name, so it runs bound
    to the kernel's namespace (``_inlined_step``): systems of one shape
    share its code, each with its own constants.  The last 256 steps are
    kept, keyed by (dim, kernel text) as ``expressions._compiled`` keys a
    kernel by its source.
    """
    comps = range(dim)
    redo = f"return stepper({dim})(rhs, t, h, y, f, rtol, atol)"

    def tup(names):
        return "(" + "".join(f"{name}, " for name in names) + ")"

    def row(coeffs, i):
        return _terms(coeffs, [f"k{j}_{i}" for j in range(len(coeffs))])

    def stage(s, state=None):
        state = state or [f"y_{i} + h*({row(_A[s], i)})" for i in comps]
        slopes, time = [f"k{s}_{i}" for i in comps], f"t + {float(_C[s])!r}*h"
        if kernel is None:
            return [f"        {tup(slopes)} = rhs({time}, {tup(state)})"]
        (t_arg, _), (_, names) = kernel.params, kernel.unpacked
        doubt = [f"if not isfinite({kernel.watched}): {redo}"] if kernel.watched else []
        lines = [
            f"{t_arg} = {time}", *(f"{name} = {value}" for name, value in zip(names, state)),
            *kernel.lines, *doubt, *(f"{k} = {r}" for k, r in zip(slopes, kernel.results)),
        ]
        return [f"        {line}" for line in lines]

    def all_finite(names):
        # 0*v is 0 for finite v and NaN otherwise, so the sum is finite iff all are
        return "    if not isfinite(" + " + ".join(f"0.0*{name}" for name in names) + "):"

    ys, k0, new = (tup(f"{v}_{i}" for i in comps) for v in ("y", "k0", "n"))
    reject = "        return inf, None, None, None"
    # a stage block that raises rejects the attempt; with a kernel inlined
    # it hands the attempt to the calling step, which runs the kernel's guard
    failed = ["    except _RHS_ERRORS:", reject]
    if kernel is not None:
        failed = ["    except SIGNALLED:", f"        {redo}"]
    lines = [
        "def step(rhs, t, h, y, f, rtol, atol):",
        f"    {ys} = y",
        f"    {k0} = f",
        "    try:",
        *(line for s in range(1, 12) for line in stage(s)),
        *failed,
        *(f"    n_{i} = y_{i} + h*({row(_B, i)})" for i in comps),
        all_finite([f"k{s}_{i}" for s in range(1, 12) for i in comps] + [f"n_{i}" for i in comps]),
        reject,
        *(f"    s_{i} = atol + rtol*max(abs(y_{i}), abs(n_{i}))" for i in comps),
        *(f"    e_{i} = ({row(_E5, i)})/s_{i}" for i in comps),
        *(f"    d_{i} = ({row(_E3, i)})/s_{i}" for i in comps),
        "    err5 = " + " + ".join(f"e_{i}*e_{i}" for i in comps),
        "    err3 = " + " + ".join(f"d_{i}*d_{i}" for i in comps),
        "    if err5 == 0.0 and err3 == 0.0:",
        "        err = 0.0",
        "    else:",
        f"        err = h*err5/sqrt((err5 + 0.01*err3)*{dim})",
        "    if not err <= 1.0:",
        "        return err, None, None, None",
        "    try:",
        *stage(12, [f"n_{i}" for i in comps]),
        *(line for s in range(13, 16) for line in stage(s)),
        *failed,
        all_finite([f"k{s}_{i}" for s in range(12, 16) for i in comps]),
        reject,
    ]
    stages = tup(f"k{s}_{i}" for s in _DENSE_STAGES for i in comps)
    lines.append(f"    return err, {new}, {tup(f'k12_{i}' for i in comps)}, {stages}")
    name = f"<DOP853 step, dim {dim}>" if kernel is None else f"<DOP853 step, dim {dim}, kernel inlined>"
    namespace = dict(_STEP_NAMES)
    exec(compile("\n".join(lines) + "\n", name, "exec"), namespace)
    return namespace["step"]


def _sum(coeffs, values):
    """sum(c * value) over the nonzero coefficients, left to right: the arithmetic of ``_terms``'s source.

    ``a - |c|*v`` is ``a + c*v`` and ``-|c|*v`` is ``c*v`` in IEEE arithmetic, and
    ``1.0*v`` is ``v``, so each sum is the same float.
    """
    total = None
    for c, value in zip(coeffs.tolist(), values):
        if c:
            term = value if c == 1.0 else c * value
            total = term if total is None else total + term
    return total


def _interpolants(h, y, y_new, stages) -> np.ndarray:
    """Monomial coefficients of n accepted steps' interpolants, as an (n, dim, 7) array.

    The steps run along the last axis of each argument: ``h`` holds their
    sizes, ``y`` and ``y_new`` (dim, n) the states at their starts and ends,
    and ``stages`` (12, dim, n) the values of the stages ``_DENSE_STAGES``
    that each step returned.  The rows F0..F6 and their monomial sums take
    the operations of their ``_terms`` source in its order, so each
    coefficient is the float that source gives on Python floats; like those
    floats, they overflow to inf without a warning.
    """
    k0, k12 = stages[0], stages[_DENSE_STAGES.index(12)]
    with np.errstate(all="ignore"):
        f0 = y_new - y
        rows = [f0, h * k0 - f0, 2.0 * f0 - h * (k0 + k12)]
        # F3..F6 at once: each stage times its column of _D, summed in stage order
        products = _D[:, _DENSE_STAGES, None, None] * stages
        total = products[:, 0]
        for j in range(1, len(_DENSE_STAGES)):
            total = total + products[:, j]
        rows += list(h * total)
        return np.stack([_sum(_MONOMIAL[:, j], rows) for j in range(_DEGREE)], axis=-1).transpose(1, 0, 2)


def _scan_states(q, y) -> np.ndarray:
    """The states at th = ``_SCAN_AT`` of steps with coefficients ``q`` from ``y``, shape (3, n, dim).

    Horner's rule over ``q`` (n, dim, 7), the read the floor scan makes.
    """
    th = np.array(_SCAN_AT)[:, None, None]
    with np.errstate(all="ignore"):
        total = q[..., _DEGREE - 1]
        for j in reversed(range(_DEGREE - 1)):
            total = q[..., j] + th * total
        return y + th * total


def _first_below(q, y, floored, x_min) -> int | None:
    """The index of the first step whose components ``floored`` go below x_min at ``_SCAN_AT``, or None.

    ``q`` (n, dim, 7) and ``y`` (n, dim) are the steps' coefficients and starting states.
    """
    cols = list(floored)
    below = (_scan_states(q[:, cols], y[:, cols]) < x_min).any(axis=(0, 2))
    return int(np.argmax(below)) if below.any() else None


def _inlined_step(dim: int, parts):
    """The step of a system whose ``rhs`` is the kernel of ``parts``: its body in each stage.

    The step's code is shared by every kernel of the same text and bound
    here to this kernel's namespace and to ``_stepper``, which it calls
    only to redo a doubtful attempt, so the calling step is generated only
    then.  A kernel longer than ``_INLINED_LINES`` is called from each
    stage instead.
    """
    if len(parts.text.lines) > _INLINED_LINES:
        return _stepper(dim)
    code = _stepper(dim, parts.text).__code__
    return types.FunctionType(code, {**_STEP_NAMES, **parts.namespace, "stepper": _stepper})


def integrate(
    sys: ODESystem,
    y0: Sequence[float],
    interval: tuple[float, float],
    settings: IntegrationSettings | None = None,
) -> Trajectory:
    """Integrate forward over ``interval``; never raises for step failures.

    A floored component (``ODESystem.floored``) below ``settings.x_min``
    and step-size underflow are reported through the trajectory status so
    callers always get the prefix that was computed.  Returned states are
    always finite.  The interpolants are built, and their interiors
    scanned against the floor, ``_BLOCK`` accepted steps at a time.
    """
    settings = settings or IntegrationSettings()
    t0, t1 = finite_interval(interval)
    y = np.asarray(y0, dtype=float)
    if y.shape != (sys.dim,):
        raise ValueError(f"initial state has shape {y.shape}, system dim is {sys.dim}")
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    y = tuple(y.tolist())
    rhs, floored, x_min = sys.rhs, sys.floored, settings.x_min

    times, states, steps = [t0], [y], []
    dense = [np.empty((0, sys.dim, _DEGREE))]  # the interpolants built so far, a block at a time
    pending = []  # the stage values (``_DENSE_STAGES``) of the steps whose interpolants are not built

    def settle():
        """Build the pending steps' interpolants and scan their interiors against the floor.

        Returns the guard message of the first step whose interior goes
        below it, after discarding that step and every later one, or None.
        """
        n = len(pending)
        if not n:
            return None
        ys = np.array(states[-n - 1 :])
        flat = np.fromiter(itertools.chain.from_iterable(pending), float, n * len(_DENSE_STAGES) * sys.dim)
        pending.clear()
        stages = np.ascontiguousarray(flat.reshape(n, -1).T).reshape(len(_DENSE_STAGES), sys.dim, n)
        nodes = np.ascontiguousarray(ys.T)
        q = _interpolants(np.array(steps[-n:]), nodes[:, :-1], nodes[:, 1:], stages)
        dense.append(q)
        first = _first_below(q, ys[:-1], floored, x_min) if floored else None
        if first is None:
            return None
        k = len(steps) - n + first
        end = times[k + 1]
        del times[k + 1 :], states[k + 1 :], steps[k:]
        dense[-1] = q[:first]
        return f"guard fired within step ending t={end!r}"

    def done(status, message=""):
        stop = settle()
        if stop is not None:
            status, message = GUARD_STOP, stop
        return Trajectory(times, states, np.concatenate(dense), steps, sys, status, message)

    if any(y[i] < x_min for i in floored):
        return done(GUARD_STOP, f"guard fired at initial state t={t0!r}")

    t = t0
    try:
        f = rhs(t, y)
    except _RHS_ERRORS as e:
        return done(STEP_FAILURE, f"right-hand side undefined at t={t!r}: {e}")
    if not all(map(math.isfinite, f)):
        return done(STEP_FAILURE, f"non-finite right-hand side at t={t!r}")

    rtol, atol = settings.rtol, settings.atol
    h = _initial_step(rhs, t0, y, f, t1, rtol, atol)
    facold = 1e-4
    rejected = False
    step, block = sys.step, _BLOCK
    # the loop's constants and calls as locals; each min/max is written out
    # as the conditional expression that returns what min/max would
    isfinite, expo, beta, safety = math.isfinite, _EXPO, _BETA, _SAFETY
    fac_lo, fac_hi = 1 / _MAX_FACTOR, 1 / _MIN_FACTOR
    add_time, add_state, add_pending, add_step = times.append, states.append, pending.append, steps.append

    for _ in range(settings.max_steps):
        if t >= t1:
            return done(COMPLETED)
        a = abs(t)
        if h < 1e-14 * (a if a > 1.0 else 1.0):
            return done(STEP_FAILURE, f"step size underflow at t={t!r}")
        rest = t1 - t
        if rest < h:
            h = rest

        err_norm, y_new, f_new, stages = step(rhs, t, h, y, f, rtol, atol)
        if not (err_norm <= 1.0):
            # reject
            fac = (err_norm**expo if isfinite(err_norm) else 10.0) / safety
            h = h / (fac if fac < fac_hi else fac_hi)
            rejected = True
            continue

        # accepted: the step's end against the floor before committing it;
        # its interior is scanned with its block, by ``settle``
        for i in floored:
            if y_new[i] < x_min:
                return done(GUARD_STOP, f"guard fired within step ending t={t + h!r}")

        add_time(t + h)
        add_state(y_new)
        add_pending(stages)
        add_step(h)
        if len(pending) == block and (stop := settle()):
            return done(GUARD_STOP, stop)
        t = t + h
        y = y_new
        f = f_new  # FSAL

        fac = err_norm**expo / facold**beta / safety
        fac = fac if fac < fac_hi else fac_hi
        h_new = h / (fac if fac > fac_lo else fac_lo)
        if rejected:
            h_new = h if h < h_new else h_new
            rejected = False
        facold = 1e-4 if 1e-4 > err_norm else err_norm
        h = h_new

    if t >= t1:
        return done(COMPLETED)
    return done(STEP_FAILURE, f"step budget exhausted at t={t!r}")


def residual(sys: ODESystem, tr: Trajectory, grid: Sequence[float]) -> float:
    """Largest |trajectory slope - sys's fields| over the grid (max over components).

    The universal verdict: a trajectory of system P checked against system Q
    measures max |f_P - f_Q| along the orbit, which is ~0 for Q = P and the
    honest defect size otherwise.  Both systems' fields are evaluated in one
    call on the same state names, so their common subtrees run once.
    """
    own = tr.system
    if sys.names != own.names:
        raise ValueError(f"state names {sys.names} differ from the trajectory's {own.names}")
    grid = np.asarray(grid, dtype=float).reshape(-1)
    ys = tr.sample(grid)
    env = {"t": grid, **{name: ys[:, i] for i, name in enumerate(own.names)}}
    slopes = np.column_stack(evaluate((*own.fields, *sys.fields), env, own.domain + sys.domain))
    return worst_residual(slopes[:, : own.dim] - slopes[:, own.dim :])

