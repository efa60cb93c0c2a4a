"""The maximal-symmetry third-order equation w''' + 2a(t) w' + a'(t) w = 0.

Its solution space is spanned by products of solutions of the half-coefficient
oscillator z'' + (a/2) z = 0 (the full-coefficient base equation fails by a
factor-2 residual; see the audit module).  It carries the first integral

    I = w w'' - w'^2 / 2 + a w^2,

constant on solutions, and the substitution w = rho^2 sends solutions with
I = 2 h^2 to solutions of rho'' + (a/2) rho = h^2 / rho^3.

A solution w may be any curve with ``jet(ts, k)``: a product solution, a
time function, or a trajectory of the third-order system in state
(w, w', w''), whose order-3 row comes from the producing right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import TimeFunction, const, evaluate, fail_first, var
from .ode import ODESystem, worst_residual
from .oscillator import OscillatorBasis, QuadraticFormCurve
from .pinney import SqrtCurve, ep_field


@dataclass(frozen=True)
class ThirdOrderConfig:
    a: TimeFunction

    def base_phi(self) -> TimeFunction:
        """Coefficient of the oscillator whose solution products span w."""
        return self.a.scaled(0.5)


def third_order_system(cfg: ThirdOrderConfig) -> ODESystem:
    """State (w, w', w'') of w''' = -2a w' - a' w."""
    names = ("w", "w1", "w2")
    w0, w1, w2 = map(var, names)
    return ODESystem(names, (w1, w2, const(-2.0) * cfg.a.expr * w1 - cfg.a.derivative_expr(1) * w0))


def first_integral(cfg: ThirdOrderConfig, w, t):
    """I = w w'' - w'^2/2 + a w^2 on a curve or trajectory.

    A float at a scalar t, an array over a grid (one jet of w and of a).
    """
    ts = np.asarray(t, dtype=float).reshape(-1)
    w0, w1, w2 = w.jet(ts, 2)
    with np.errstate(all="ignore"):
        value = w0 * w2 - 0.5 * w1 * w1 + cfg.a.jet(ts, 0)[0] * w0 * w0
    fail_first(~np.isfinite(value), "first integral is not finite at t={!r}", ts)
    return float(value[0]) if np.ndim(t) == 0 else value


def product_solution(basis: OscillatorBasis, A: float, B: float, C: float) -> QuadraticFormCurve:
    """w = A u^2 + 2B uv + C v^2 over a basis of the half-coefficient oscillator."""
    return QuadraticFormCurve(basis, A, B, C)


def third_order_residual(cfg: ThirdOrderConfig, w, grid) -> float:
    """max |w''' + 2a w' + a' w| over the grid."""
    grid = np.asarray(grid, dtype=float)
    w0, w1, _, w3 = w.jet(grid, 3)
    a0, a1 = cfg.a.jet(grid, 1)
    return worst_residual(w3 + 2.0 * a0 * w1 + a1 * w0)


def rho_substitution(cfg: ThirdOrderConfig, w, grid) -> tuple[SqrtCurve, float]:
    """rho = sqrt(w) and the residual of rho'' + (a/2) rho = h^2/rho^3.

    h^2 is read off as first_integral/2 at the left end of the grid.  Raises
    if w is not positive on the grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    h2 = 0.5 * first_integral(cfg, w, float(grid[0]))
    rho = SqrtCurve(w)
    r0, _, r2 = rho.jet(grid, 2)  # raises DomainError when w <= 0
    # rho'' carries a 1/(2 rho) factor, so a vanishing w makes the
    # residual pure rounding noise; same floor as the EP guard
    fail_first(r0 < 1e-6, "w vanishes at t={!r} (rho={!r})", grid, r0)
    field = ep_field(cfg.base_phi().expr, const(h2))
    return rho, worst_residual(r2 - evaluate(field, {"t": grid, "x": r0}))
