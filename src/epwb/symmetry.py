"""Lie point symmetries of second-order equations x'' = w(t, x, x').

A point symmetry Gamma = tau(t,x) d_t + xi(t,x) d_x is verified through the
linearized symmetry condition with the second prolongation taken on-shell:

    xi2 = tau w_t + xi w_x + xi1 w_v          at x'' = w, where
    xi1 = xi_t + v (xi_x - tau_t) - v^2 tau_x
    xi2 = xi_tt + v (2 xi_tx - tau_tt) + v^2 (xi_xx - 2 tau_tx)
          - v^3 tau_xx + w (xi_x - 2 tau_t - 3 v tau_x)

and symmetry_residual reports the worst violation over a sample set.
Coefficients are expression trees over (t, x); fields built over numeric
basis solutions enter through CurveVal leaves, so structural derivatives
stay exact either way.

Equations x'' + Phi x = G/x^3 with Phi, G compatible in the sense

    a = 4 C0 G / G',   Phi = M/a^2 - (a''/a - (a'/a)^2 / 2) / 2

retain the single symmetry Gamma_s = (4G/G') d_t + x (3 - 2 G G''/G'^2) d_x,
which this module constructs and verifies; the catalog case G = (1+t)^4
gives a = 1+t and Phi = (M + 1/4)/(1+t)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import (
    CurveVal,
    Expr,
    TimeFunction,
    _first,
    const,
    cos,
    differentiate,
    evaluate,
    parse_expression,
    scalar_kernel,
    sin,
    var,
)
from .ode import finite_interval, worst_residual
from .oscillator import _X, DegenerateBasisError, OscillatorBasis
from .pinney import ep_field

_T = var("t")


class PointSymmetry:
    """tau(t,x) d_t + xi(t,x) d_x with partial derivatives precomputed.

    ``partials[comp]`` holds the trees (f, f_t, f_x, f_tt, f_tx, f_xx) of
    ``comp`` in ("tau", "xi"); one differentiation memo per variable is
    shared by both components, so their common subtrees are derived once.
    """

    def __init__(self, tau: Expr, xi: Expr, name: str = ""):
        self.tau = tau
        self.xi = xi
        self.name = name
        self._kernel = None
        memo_t, memo_x = {}, {}
        self.partials = {}
        for comp, tree in (("tau", tau), ("xi", xi)):
            dt = differentiate(tree, "t", memo_t)
            dx = differentiate(tree, "x", memo_x)
            self.partials[comp] = (
                tree,
                dt,
                dx,
                differentiate(dt, "t", memo_t),
                differentiate(dt, "x", memo_x),
                differentiate(dx, "x", memo_x),
            )

    def components(self, t, x):
        """(tau, xi) at one point as floats, or over arrays ``t``, ``x`` as arrays."""
        if np.ndim(t) == 0 and np.ndim(x) == 0:
            if self._kernel is None:
                self._kernel = scalar_kernel((self.tau, self.xi), ("t", "x"))
            return self._kernel(t, x)
        return tuple(evaluate((self.tau, self.xi), {"t": t, "x": x}))

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"<PointSymmetry{tag}: tau={self.tau}, xi={self.xi}>"


def point_symmetry(tau_text: str, xi_text: str, name: str = "") -> PointSymmetry:
    """Build a symmetry from expression strings over (t, x)."""
    return PointSymmetry(
        parse_expression(tau_text, ("t", "x")),
        parse_expression(xi_text, ("t", "x")),
        name,
    )


class SecondOrderODE:
    """Right-hand side w(t, x, v) of x'' = w as an expression field."""

    def __init__(self, w: Expr):
        self.w = w
        self.w_t = differentiate(w, "t")
        self.w_x = differentiate(w, "x")
        self.w_v = differentiate(w, "v")

    @classmethod
    def from_ep(cls, phi: TimeFunction, g: TimeFunction) -> "SecondOrderODE":
        return cls(ep_field(phi.expr, g.expr))

    @classmethod
    def from_text(cls, text: str) -> "SecondOrderODE":
        return cls(parse_expression(text, ("t", "x", "v")))


def default_samples(
    interval: tuple[float, float],
    x_range: tuple[float, float] = (0.5, 2.0),
    v_range: tuple[float, float] = (-1.0, 1.0),
    n: int = 5,
) -> list[tuple[float, float, float]]:
    """Interior (t, x, v) lattice used by residual checks (n^3 points)."""
    t0, t1 = finite_interval(interval)
    ts = t0 + (t1 - t0) * np.linspace(0.1, 0.9, n)
    xs = np.linspace(*x_range, n)
    vs = np.linspace(*v_range, n)
    return [(float(t), float(x), float(v)) for t in ts for x in xs for v in vs]


def symmetry_residual(sym: PointSymmetry, ode: SecondOrderODE, samples) -> float:
    """Worst on-shell violation of the linearized symmetry condition.

    All 16 trees are evaluated over the whole sample set in one call, so
    subtrees common to the equation and the symmetry run once.
    """
    t, x, v = np.array(samples, dtype=float).reshape(-1, 3).T.copy()
    trees = (ode.w, ode.w_t, ode.w_x, ode.w_v, *sym.partials["tau"], *sym.partials["xi"])
    (
        w, w_t, w_x, w_v,
        tau, tau_t, tau_x, tau_tt, tau_tx, tau_xx,
        xi, xi_t, xi_x, xi_tt, xi_tx, xi_xx,
    ) = evaluate(trees, {"t": t, "x": x, "v": v})

    xi1 = xi_t + v * (xi_x - tau_t) - v * v * tau_x
    xi2 = (
        xi_tt
        + v * (2.0 * xi_tx - tau_tt)
        + v * v * (xi_xx - 2.0 * tau_tx)
        - v**3 * tau_xx
        + w * (xi_x - 2.0 * tau_t - 3.0 * v * tau_x)
    )
    return worst_residual(xi2 - (tau * w_t + xi * w_x + xi1 * w_v))


def lie_bracket(s1: PointSymmetry, s2: PointSymmetry) -> PointSymmetry:
    """[X, Y] = (X tau_Y - Y tau_X) d_t + (X xi_Y - Y xi_X) d_x, built structurally."""

    def apply(sym: PointSymmetry, f: Expr) -> Expr:
        return sym.tau * differentiate(f, "t") + sym.xi * differentiate(f, "x")

    name = ""
    if s1.name and s2.name:
        name = f"[{s1.name},{s2.name}]"
    return PointSymmetry(
        apply(s1, s2.tau) - apply(s2, s1.tau),
        apply(s1, s2.xi) - apply(s2, s1.xi),
        name,
    )


def structure_constants(basis: list[PointSymmetry], samples) -> tuple[np.ndarray, float]:
    """Fit every bracket back onto the basis: [e_i, e_j] = sum_k c[i,j,k] e_k.

    ``samples`` is a set of (t, x) points on which the basis must be
    pointwise linearly independent.  Returns the (3,3,3) array and the worst
    pointwise fit residual.  Raises DegenerateBasisError on rank deficiency.
    """
    if len(basis) != 3:
        raise ValueError("need exactly three symmetries")
    t, x = np.array(list(samples), dtype=float).reshape(-1, 2).T.copy()

    def stacked(sym: PointSymmetry) -> np.ndarray:
        # tau and xi interleaved point by point: tau(p0), xi(p0), tau(p1), ...
        return np.column_stack(sym.components(t, x)).reshape(-1)

    mat = np.column_stack([stacked(s) for s in basis])
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] < 1e-10 * max(svals[0], 1.0):
        raise DegenerateBasisError(
            f"symmetries not pointwise independent on samples (singular values {svals})"
        )
    c = np.zeros((3, 3, 3))
    misfits = []
    for i in range(3):
        for j in range(i + 1, 3):
            rhs = stacked(lie_bracket(basis[i], basis[j]))
            coeff, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
            c[i, j] = coeff
            c[j, i] = -coeff
            misfits.append(mat @ coeff - rhs)
    return c, worst_residual(np.concatenate(misfits))


def killing_form(c: np.ndarray) -> np.ndarray:
    """K_ab = trace(ad_a ad_b) from structure constants [e_i,e_j] = c[i,j,k] e_k."""
    return np.einsum("ajk,bkj->ab", c, c)


def autonomous_family(f: float) -> list[PointSymmetry]:
    """The three symmetries of x'' + f^2 x = G/x^3 with constant f and G.

    Brackets close as [G1,G2] = 2f G3, [G1,G3] = -2f G2, [G2,G3] = -2f G1
    (so(2,1) pattern; the Killing form has two eigenvalues of one sign and
    one of the other).
    """
    if f == 0.0:
        raise ValueError("need a nonzero frequency")
    fc = const(f)
    arg = const(2.0 * f) * _T
    return [
        PointSymmetry(const(1), const(0), "Gamma1"),
        PointSymmetry(sin(arg), fc * _X * cos(arg), "Gamma2"),
        PointSymmetry(cos(arg), -(fc * _X * sin(arg)), "Gamma3"),
    ]


def basis_family(basis: OscillatorBasis) -> list[PointSymmetry]:
    """Symmetries of x'' + Phi(t) x = G/x^3 built over an oscillator basis.

    Gamma_1 = u^2 d_t + u u' x d_x, Gamma_2 = uv d_t + (u'v + uv')/2 x d_x,
    Gamma_3 = v^2 d_t + v v' x d_x.  Brackets close with the basis Wronskian
    as scale: {W Gamma_1, 2W Gamma_2, W Gamma_3}.
    """
    cu = basis.curve("u")
    cv = basis.curve("v")
    u0, u1 = CurveVal(cu, 0, "u"), CurveVal(cu, 1, "u")
    v0, v1 = CurveVal(cv, 0, "v"), CurveVal(cv, 1, "v")
    return [
        PointSymmetry(u0 * u0, u0 * u1 * _X, "Gamma1"),
        PointSymmetry(u0 * v0, const(0.5) * (u1 * v0 + u0 * v1) * _X, "Gamma2"),
        PointSymmetry(v0 * v0, v0 * v1 * _X, "Gamma3"),
    ]


@dataclass(frozen=True)
class CompatibleFamily:
    """A (Phi, G) pair retaining one point symmetry, parametrized by (G, C0, M)."""

    g: TimeFunction
    c0: float
    m: float
    interval: tuple[float, float]
    a: TimeFunction
    phi: TimeFunction

    @property
    def omega(self) -> float:
        """Linear coefficient of the reduced autonomous equation."""
        return 1.0 + self.m / self.c0**2


def compatible_family(
    g: TimeFunction,
    c0: float,
    m: float,
    interval: tuple[float, float],
    validation_samples: int = 200,
) -> CompatibleFamily:
    """Derive a(t) = 4 C0 G/G' and the compatible Phi(t) on the interval.

    Requires G' > 0 throughout (checked by sampling); a monotone G is what
    makes the canonical chart T = log(G)/4 well-defined later.
    """
    if c0 == 0.0:
        raise ValueError("C0 must be nonzero")
    ge = g.expr
    g1 = g.derivative_expr(1)
    ts = np.linspace(*finite_interval(interval), validation_samples)
    bad = evaluate(g1, {"t": ts}) <= 0.0
    if bad.any():
        raise ValueError("G' is not positive at t={!r}".format(*_first(bad, ts)))
    a_expr = (const(4.0 * c0) * ge) / g1
    a = TimeFunction(a_expr)
    a1 = a.derivative_expr(1)
    a2 = a.derivative_expr(2)
    phi_expr = const(m) / (a_expr * a_expr) - const(0.5) * (
        a2 / a_expr - const(0.5) * ((a1 / a_expr) * (a1 / a_expr))
    )
    phi = TimeFunction(phi_expr)
    return CompatibleFamily(
        g=g,
        c0=float(c0),
        m=float(m),
        interval=(float(interval[0]), float(interval[1])),
        a=a,
        phi=phi,
    )


def surviving_symmetry(fam: CompatibleFamily) -> PointSymmetry:
    """Gamma_s = (4G/G') d_t + x (3 - 2 G G''/G'^2) d_x (C0-independent)."""
    ge = fam.g.expr
    g1 = fam.g.derivative_expr(1)
    g2 = fam.g.derivative_expr(2)
    tau = const(4) * ge / g1
    xi = _X * (const(3) - const(2) * ge * g2 / (g1 * g1))
    return PointSymmetry(tau, xi, "Gamma_s")


def ep_ode(fam: CompatibleFamily) -> SecondOrderODE:
    """The equation x'' = -Phi x + G/x^3 of a compatible family, as a field."""
    return SecondOrderODE.from_ep(fam.phi, fam.g)
