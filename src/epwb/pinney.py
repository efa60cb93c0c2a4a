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

from .expressions import DomainError, TimeFunction
from .ode import IntegrationSettings, ODESystem, worst_residual
from .oscillator import DegenerateBasisError, OscillatorBasis, QuadraticFormCurve


@dataclass(frozen=True)
class EPConfig:
    """Coefficient pair of x'' + phi(t) x = g(t)/x^3."""

    phi: TimeFunction
    g: TimeFunction


def ep_system(cfg: EPConfig, settings: IntegrationSettings | None = None) -> ODESystem:
    settings = settings or IntegrationSettings()
    x_min = settings.x_min

    def rhs(t, y):
        x = y[0]
        if x <= 0.0:
            raise DomainError(f"state left the x > 0 half-plane (x={x!r})")
        return np.array([y[1], -cfg.phi.eval(t) * x + cfg.g.eval(t) / x**3])

    def guard(t, y):
        return y[0] < x_min

    return ODESystem(dim=2, rhs=rhs, guard=guard)


class SqrtCurve:
    """x = sqrt(w) for a positive curve w, with derivatives of every order."""

    def __init__(self, base, label: str = "x"):
        self.base = base
        self.label = label

    def jet(self, ts, k: int) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        w = self.base.jet(ts, k)
        bad = w[0] <= 0.0
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"sqrt of non-positive curve value {float(w[0, i])!r} at t={float(ts[i])!r}"
            )
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


def ep_residual(cfg: EPConfig, x, grid, x_min: float = 1e-6) -> float:
    """max |x'' + phi x - g/x^3| over the grid for a curve or trajectory."""
    grid = np.asarray(grid, dtype=float)
    xx, _, xdd = x.jet(grid, 2)
    low = xx < x_min
    if low.any():
        i = int(np.argmax(low))
        raise DomainError(
            f"x={float(xx[i])!r} below guard threshold {x_min!r} at t={float(grid[i])!r}"
        )
    phi = cfg.phi.jet(grid, 0)[0]
    g = cfg.g.jet(grid, 0)[0]
    return worst_residual(xdd + phi * xx - g / xx**3)


def ermakov_invariant(x, y, h2: float, t: float) -> float:
    """I = ((x'y - x y')^2 + h^2 (y/x)^2) / 2 for x nonlinear, y linear."""
    xv, xd = x.jet([t], 1)[:, 0]
    yv, yd = y.jet([t], 1)[:, 0]
    if xv == 0.0:
        raise DomainError(f"x(t)=0 at t={t!r}")
    cross = xd * yv - xv * yd
    return float(0.5 * (cross * cross + h2 * (yv / xv) ** 2))


@dataclass(frozen=True)
class LewisState:
    """Oscillator phase point (q, p) plus the auxiliary amplitude rho, rho'."""

    q: float
    p: float
    rho: float
    rho_dot: float


def lewis_invariant(state: LewisState) -> float:
    """I = ((rho p - rho' q)^2 + (q/rho)^2) / 2; needs rho solving the h=1 equation."""
    if state.rho == 0.0:
        raise DomainError("rho = 0")
    a = state.rho * state.p - state.rho_dot * state.q
    return 0.5 * (a * a + (state.q / state.rho) ** 2)


def lorentz_adiabatic(omega: float, q: float, p: float) -> float:
    """Adiabatic ratio E/omega = (p^2 + omega^2 q^2) / (2 omega)."""
    if omega <= 0.0:
        raise DomainError(f"omega must be positive, got {omega!r}")
    return (p * p + omega * omega * q * q) / (2.0 * omega)


def autonomous_energy(phi0: float, h2: float, x: float, xdot: float) -> float:
    """Conserved energy of the constant-coefficient equation."""
    return 0.5 * xdot * xdot + 0.5 * phi0 * x * x + 0.5 * h2 / (x * x)


def drift(values) -> float:
    """Relative spread (max - min) / max(1, |mean|) of a sampled series.

    Raises DomainError when the spread or the mean is NaN or infinite, so
    no verdict or report rests on a non-finite number.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty series")
    with np.errstate(over="ignore", invalid="ignore"):
        spread, mean = values.max() - values.min(), values.mean()
    if not (math.isfinite(spread) and math.isfinite(mean)):
        raise DomainError(f"non-finite series (spread {spread!r}, mean {mean!r})")
    return float(spread / max(1.0, abs(mean)))


def invariant_audit(name: str, interval, times, values) -> dict:
    """JSON-ready drift report for a sampled invariant series."""
    values = np.asarray(values, dtype=float)
    return {
        "name": name,
        "interval": [float(interval[0]), float(interval[1])],
        "samples": int(values.size),
        "mean": float(values.mean()),
        "drift": drift(values),
    }
