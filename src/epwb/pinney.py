"""Superposition solutions and invariants for x'' + Phi(t) x = G(t)/x^3.

The closed-form solution over an oscillator basis (u, v) with Wronskian W is
x = sqrt(A u^2 + 2B uv + C v^2), which solves the equation with constant
forcing G = h^2 where

    h^2 = (A C - B^2) W^2.

The W exponent is forced by the Gram identity
(A u^2+2Buv+Cv^2)(A u'^2+2Bu'v'+Cv'^2) - (A uu'+B(uv)'+C vv')^2
= (AC - B^2) W^2; a scaled basis (W = 2) discriminates it from the
linear-in-W reading (see the audit module).

Curves are evaluated by ``jet(ts, k)`` (derivatives 0..k on a grid); x = sqrt(w)
has x^(o) = (w^(o) - sum_{j=1}^{o-1} C(o,j) x^(j) x^(o-j)) / (2x) at every order.

Also here: the Ermakov invariant pairing a nonlinear solution with a linear
one, the Lewis invariant for the h = 1 normalization, and the elementary
adiabatic ratio E/omega with its drift audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import DomainError, Expr, TimeFunction, evaluate, fail_first
from .ode import X_MIN, ODESystem, worst_residual
from .oscillator import _V, _X, DegenerateBasisError, OscillatorBasis, QuadraticFormCurve


@dataclass(frozen=True)
class EPConfig:
    """Coefficient pair of x'' + phi(t) x = g(t)/x^3."""

    phi: TimeFunction
    g: TimeFunction


def ep_field(phi: Expr, g: Expr) -> Expr:
    """w(t, x) = -phi x + g/x^3 of x'' = w: the one tree of the EP equation."""
    return -phi * _X + g / _X**3


def ep_system(cfg: EPConfig) -> ODESystem:
    """State (x, v) on x > 0; ``integrate`` stops it before x < ``settings.x_min``."""
    return ODESystem(("x", "v"), (_V, ep_field(cfg.phi.expr, cfg.g.expr)), domain=(_X,))


class SqrtCurve:
    """x = sqrt(w) for a positive curve w, with derivatives of every order."""

    def __init__(self, base):
        self.base = base

    def jet(self, ts, k: int) -> np.ndarray:
        """Rows 0..k hold the derivatives over the grid ``ts`` (a scalar t is [t]): shape (k+1, len(ts))."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        w = self.base.jet(ts, k)
        fail_first(w[0] <= 0.0, "sqrt of non-positive curve value {!r} at t={!r}", w[0], ts)
        x = np.empty_like(w)
        x[0] = np.sqrt(w[0])
        for o in range(1, k + 1):
            cross = sum(math.comb(o, j) * x[j] * x[o - j] for j in range(1, o))
            x[o] = (w[o] - cross) / (2.0 * x[0])
        return x


def pinney_solution(
    basis: OscillatorBasis,
    A: float,
    B: float,
    C: float,
    wronskian_power: int = 2,
) -> tuple[SqrtCurve, float]:
    """Superposition curve and its forcing constant h^2 = (AC - B^2) W^p.

    ``wronskian_power`` exists only so the audit can evaluate the rejected
    linear-in-W reading; p = 2 is the verified normalization.
    """
    disc = A * C - B * B
    if disc <= 0.0:
        raise ValueError(f"need A*C - B^2 > 0 for a positive solution, got {disc!r}")
    if abs(basis.wronskian0) < 1e-12:
        raise DegenerateBasisError("basis Wronskian is zero")
    h2 = disc * basis.wronskian0**wronskian_power
    return SqrtCurve(QuadraticFormCurve(basis, A, B, C)), h2


def ep_residual(cfg: EPConfig, x, grid) -> float:
    """max |x'' + phi x - g/x^3| over the grid for a curve or trajectory; x must stay >= X_MIN."""
    grid = np.asarray(grid, dtype=float)
    xx, _, xdd = x.jet(grid, 2)
    fail_first(xx < X_MIN, "x={!r} below guard threshold {!r} at t={!r}", xx, X_MIN, grid)
    return worst_residual(xdd - evaluate(ep_field(cfg.phi.expr, cfg.g.expr), {"t": grid, "x": xx}))


def _ermakov(x, xd, y, yd, h2):
    """((x'y - x y')^2 + h^2 (y/x)^2) / 2 on values: floats or arrays over one grid, unchecked."""
    cross = xd * y - x * yd
    ratio = y / x
    return 0.5 * (cross * cross + h2 * (ratio * ratio))


def ermakov_invariant(x, y, h2: float, t):
    """I = ((x'y - x y')^2 + h^2 (y/x)^2) / 2 for x nonlinear, y linear.

    A float at a scalar t, an array over a grid (one jet per curve).
    DomainError names the first t where x = 0 or I is not finite.
    """
    ts = np.asarray(t, dtype=float).reshape(-1)
    xv, xd = x.jet(ts, 1)
    yv, yd = y.jet(ts, 1)
    with np.errstate(all="ignore"):
        value = _ermakov(xv, xd, yv, yd, h2)
    bad = ~np.isfinite(value)  # x = 0 makes y/x, and so I, non-finite
    what = np.where(xv == 0.0, "x(t)=0", "Ermakov invariant is not finite")
    fail_first(bad, "{} at t={!r}", what, ts)
    return float(value[0]) if np.ndim(t) == 0 else value


@dataclass(frozen=True)
class LewisState:
    """Oscillator phase point (q, p) and auxiliary amplitude (rho, rho'): floats or grid arrays."""

    q: float
    p: float
    rho: float
    rho_dot: float


def lewis_invariant(state: LewisState):
    """I = ((rho p - rho' q)^2 + (q/rho)^2) / 2; needs rho solving the h=1 equation.

    The Ermakov invariant's arithmetic with h^2 = 1 and (x, y) = (rho, q).
    The fields are floats or arrays over one grid, and so is I.
    DomainError if rho = 0 anywhere.
    """
    fail_first(np.asarray(state.rho) == 0.0, "rho = 0")
    with np.errstate(over="ignore", invalid="ignore"):  # inf reaches drift, which names it
        return _ermakov(state.rho, state.rho_dot, state.q, state.p, 1.0)


def lorentz_adiabatic(omega, q, p):
    """Adiabatic ratio E/omega = (p^2 + omega^2 q^2) / (2 omega).

    ``omega``, ``q`` and ``p`` are floats or arrays over one grid, and so is
    the ratio.  DomainError names the first omega that is not positive (NaN
    included).
    """
    w = np.asarray(omega)
    fail_first(~(w > 0.0), "omega must be positive, got {!r}", w)
    with np.errstate(over="ignore", invalid="ignore"):
        return (p * p + omega * omega * q * q) / (2.0 * omega)


def autonomous_energy(phi0: float, h2: float, x: float, xdot: float) -> float:
    """Conserved energy of the constant-coefficient equation."""
    return 0.5 * xdot * xdot + 0.5 * phi0 * x * x + 0.5 * h2 / (x * x)


def drift(values) -> float:
    """Relative spread (max - min) / max(1, |mean|) of a sampled series.

    Raises ValueError for fewer than two values, whose spread is 0 by
    construction, and DomainError when the spread or the mean is NaN or
    infinite, so no verdict or report rests on a non-finite number or on
    one value.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError(f"a spread needs at least two values, got {values.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        spread, mean = float(values.max() - values.min()), float(values.mean())
    if not (math.isfinite(spread) and math.isfinite(mean)):
        raise DomainError(f"non-finite series (spread {spread!r}, mean {mean!r})")
    return spread / max(1.0, abs(mean))


def invariant_audit(name: str, interval, values) -> dict:
    """JSON-ready drift report for a sampled invariant series."""
    values = np.asarray(values, dtype=float)
    return {
        "name": name,
        "interval": [float(interval[0]), float(interval[1])],
        "samples": int(values.size),
        "mean": float(values.mean()),
        "drift": drift(values),
    }
