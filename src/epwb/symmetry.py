"""Lie point symmetries of second-order equations x'' = w(t, x, x').

A point symmetry Gamma = tau(t,x) d_t + xi(t,x) d_x is verified through the
linearized symmetry condition with the second prolongation taken on-shell:

    xi2 = tau w_t + xi w_x + xi1 w_v          at x'' = w, where
    xi1 = xi_t + v (xi_x - tau_t) - v^2 tau_x
    xi2 = xi_tt + v (2 xi_tx - tau_tt) + v^2 (xi_xx - 2 tau_tx)
          - v^3 tau_xx + w (xi_x - 2 tau_t - 3 v tau_x)

``symmetry_condition`` builds xi2 - (tau w_t + xi w_x + xi1 w_v) as one
expression tree over (t, x, v), and symmetry_residual reports its worst
value over a sample set.  Coefficients are expression trees over (t, x);
fields built over numeric basis solutions enter through CurveVal leaves,
so structural derivatives stay exact either way.

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
from .oscillator import _V, _X, DegenerateBasisError, OscillatorBasis, QuadraticFormCurve
from .pinney import ep_field

_T = var("t")
_VALIDATION_SAMPLES = 200  # points of the interval on which compatible_family checks G' > 0


class PointSymmetry:
    """tau(t,x) d_t + xi(t,x) d_x, with partial derivatives taken on first use.

    ``partial`` differentiates a tree by "t" or "x" with one memo per
    variable, kept here, so the components' common subtrees are derived
    once however many conditions and brackets read them.  The t-memo is
    ``t_memo`` if given, as a compatible family's, whose functions of t the
    components are built from.
    """

    def __init__(self, tau: Expr, xi: Expr, name: str = "", t_memo: dict | None = None):
        self.tau = tau
        self.xi = xi
        self.name = name
        self._memos = {"t": {} if t_memo is None else t_memo, "x": {}}
        self._kernel = None

    def partial(self, tree: Expr, variable: str) -> Expr:
        """``tree`` differentiated by ``variable`` ("t" or "x") with this symmetry's memo."""
        return differentiate(tree, variable, self._memos[variable])

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
    """Right-hand side w(t, x, v) of x'' = w as an expression field.

    ``w_t`` is derived with ``t_memo`` if given, as a compatible family's.
    """

    def __init__(self, w: Expr, t_memo: dict | None = None):
        self.w = w
        self.w_t = differentiate(w, "t", t_memo)
        self.w_x = differentiate(w, "x")
        self.w_v = differentiate(w, "v")

    @classmethod
    def from_ep(cls, phi: TimeFunction, g: TimeFunction) -> "SecondOrderODE":
        return cls(ep_field(phi.expr, g.expr))


def default_samples(interval: tuple[float, float], n: int = 5) -> np.ndarray:
    """Interior (t, x, v) lattice used by residual checks: an (n^3, 3) array, t-major.

    t covers the middle 80% of ``interval``, x [0.5, 2] and v [-1, 1]; a
    check that needs other points passes its own (N, 3) array.
    """
    t0, t1 = finite_interval(interval)
    lattice = np.empty((n, n, n, 3))
    lattice[..., 0] = (t0 + (t1 - t0) * np.linspace(0.1, 0.9, n))[:, None, None]
    lattice[..., 1] = np.linspace(0.5, 2.0, n)[:, None]
    lattice[..., 2] = np.linspace(-1.0, 1.0, n)
    return lattice.reshape(-1, 3)


def _columns(samples, n: int, what: str) -> np.ndarray:
    """The ``n`` columns of a 2-D sample array, each contiguous; ValueError for any other shape."""
    points = np.asarray(samples, dtype=float)
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"samples must be an (N, {n}) array of {what} points, got shape {points.shape}")
    return points.T.copy()


def symmetry_condition(sym: PointSymmetry, ode: SecondOrderODE) -> Expr:
    """xi2 - (tau w_t + xi w_x + xi1 w_v) as one tree over (t, x, v); zero where ``sym`` holds.

    Built by the peephole constructors, so a partial that is structurally
    zero takes its terms with it.
    """
    tau, xi, d = sym.tau, sym.xi, sym.partial
    tau_t, tau_x, xi_t, xi_x = d(tau, "t"), d(tau, "x"), d(xi, "t"), d(xi, "x")
    tau_tt, tau_tx, tau_xx = d(tau_t, "t"), d(tau_t, "x"), d(tau_x, "x")
    xi_tt, xi_tx, xi_xx = d(xi_t, "t"), d(xi_t, "x"), d(xi_x, "x")
    v, w = _V, ode.w
    xi1 = xi_t + v * (xi_x - tau_t) - v * v * tau_x
    xi2 = (
        xi_tt
        + v * (2.0 * xi_tx - tau_tt)
        + v * v * (xi_xx - 2.0 * tau_tx)
        - v**3 * tau_xx
        + w * (xi_x - 2.0 * tau_t - 3.0 * v * tau_x)
    )
    return xi2 - (tau * ode.w_t + xi * ode.w_x + xi1 * ode.w_v)


def symmetry_residual(sym: PointSymmetry, ode: SecondOrderODE, samples) -> float:
    """Worst on-shell violation of the linearized symmetry condition over (N, 3) (t, x, v) samples.

    The condition is one tree, evaluated over the whole sample set in one
    call, so subtrees common to the equation and the symmetry run once.
    """
    t, x, v = _columns(samples, 3, "(t, x, v)")
    return worst_residual(evaluate(symmetry_condition(sym, ode), {"t": t, "x": x, "v": v}))


def lie_bracket(s1: PointSymmetry, s2: PointSymmetry) -> PointSymmetry:
    """[X, Y] = (X tau_Y - Y tau_X) d_t + (X xi_Y - Y xi_X) d_x, built structurally.

    X f = tau_X f_t + xi_X f_x takes f_t and f_x through the ``partial`` of
    f's own symmetry, so each is derived once per operand and the bracket
    differentiates nothing of its own.
    """

    def apply(sym: PointSymmetry, of: PointSymmetry, comp: str) -> Expr:
        f = getattr(of, comp)
        return sym.tau * of.partial(f, "t") + sym.xi * of.partial(f, "x")

    name = ""
    if s1.name and s2.name:
        name = f"[{s1.name},{s2.name}]"
    return PointSymmetry(
        apply(s1, s2, "tau") - apply(s2, s1, "tau"),
        apply(s1, s2, "xi") - apply(s2, s1, "xi"),
        name,
    )


def structure_constants(basis: list[PointSymmetry], samples) -> tuple[np.ndarray, float]:
    """Fit every bracket back onto the basis: [e_i, e_j] = sum_k c[i,j,k] e_k.

    ``samples`` is an (N, 2) set of (t, x) points on which the basis must
    be pointwise linearly independent.  Returns the (3,3,3) array and the
    worst pointwise fit residual.  Raises DegenerateBasisError on rank
    deficiency.
    """
    if len(basis) != 3:
        raise ValueError("need exactly three symmetries")
    t, x = _columns(list(samples), 2, "(t, x)")

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

    Gamma_i = a d_t + (a'/2) x d_x for a = u^2, uv and v^2, each a
    ``QuadraticFormCurve`` leaf: the ansatz tau = a(t), xi = (a'/2) x of
    the symmetry census.  Brackets close with the basis Wronskian as scale:
    {W Gamma_1, 2W Gamma_2, W Gamma_3}.
    """

    def member(name: str, A: float, B: float, C: float) -> PointSymmetry:
        a = QuadraticFormCurve(basis, A, B, C)
        return PointSymmetry(CurveVal(a, 0, "a"), const(0.5) * CurveVal(a, 1, "a") * _X, name)

    return [member("Gamma1", 1.0, 0.0, 0.0), member("Gamma2", 0.0, 0.5, 0.0), member("Gamma3", 0.0, 0.0, 1.0)]


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


def _a_tree(g: TimeFunction, c0: float = 1.0) -> Expr:
    """a = 4 C0 G/G' as one tree in t."""
    return const(4.0 * c0) * g.expr / g.derivative_expr(1)


def compatible_family(
    g: TimeFunction,
    c0: float,
    m: float,
    interval: tuple[float, float],
) -> CompatibleFamily:
    """Derive a(t) = 4 C0 G/G' and the compatible Phi(t) on the interval.

    Requires G' > 0 throughout (checked at ``_VALIDATION_SAMPLES`` points);
    a monotone G is what makes the canonical chart T = log(G)/4
    well-defined later.  ``a`` and ``Phi`` are built over G's t-memo, and
    ``surviving_symmetry`` and ``ep_ode`` differentiate by t with it too,
    so the family derives each node by t once.  The memo lives as long as
    G: a G built for one family shares nothing with the next.
    """
    if c0 == 0.0:
        raise ValueError("C0 must be nonzero")
    ts = np.linspace(*finite_interval(interval), _VALIDATION_SAMPLES)
    bad = evaluate(g.derivative_expr(1), {"t": ts}) <= 0.0
    if bad.any():
        raise ValueError("G' is not positive at t={!r}".format(*_first(bad, ts)))
    a_expr = _a_tree(g, c0)
    a = TimeFunction(a_expr, g.memo)
    a1 = a.derivative_expr(1)
    a2 = a.derivative_expr(2)
    phi_expr = const(m) / (a_expr * a_expr) - const(0.5) * (
        a2 / a_expr - const(0.5) * ((a1 / a_expr) * (a1 / a_expr))
    )
    phi = TimeFunction(phi_expr, g.memo)
    return CompatibleFamily(
        g=g,
        c0=float(c0),
        m=float(m),
        interval=(float(interval[0]), float(interval[1])),
        a=a,
        phi=phi,
    )


def relation(phi: TimeFunction, g: TimeFunction) -> Expr:
    """R = a''' + 4 Phi a' + 2 Phi' a with a = 4G/G', one tree in t: zero where Phi and G are related.

    On the census ansatz tau = a(t), xi = (a'/2 + k) x, a symmetry of
    x'' + Phi x = G/x^3 needs a''' + 4 Phi a' + 2 Phi' a = 0 and a G' = 4k G.
    Where G' is not identically zero, k = 0 forces a = 0, so a = 4kG/G' and
    at most one symmetry survives, up to the scale k: it survives exactly
    where R vanishes.  ``a`` is built over G's t-memo, as
    ``compatible_family`` builds it.  Evaluating R raises DomainError where
    G' = 0; a G free of t, whose G' is zero everywhere, is refused with
    ValueError.
    """
    if "t" not in g.expr.vars:
        raise ValueError("G' is identically zero")
    a = TimeFunction(_a_tree(g), g.memo)
    return (
        a.derivative_expr(3)
        + const(4.0) * phi.expr * a.derivative_expr(1)
        + const(2.0) * phi.derivative_expr(1) * a.expr
    )


def surviving_symmetry(fam: CompatibleFamily) -> PointSymmetry:
    """Gamma_s = (4G/G') d_t + x (3 - 2 G G''/G'^2) d_x (C0-independent)."""
    ge = fam.g.expr
    g1 = fam.g.derivative_expr(1)
    g2 = fam.g.derivative_expr(2)
    tau = _a_tree(fam.g)
    xi = _X * (const(3) - const(2) * ge * g2 / (g1 * g1))
    return PointSymmetry(tau, xi, "Gamma_s", fam.g.memo)


def ep_ode(fam: CompatibleFamily) -> SecondOrderODE:
    """The equation x'' = -Phi x + G/x^3 of a compatible family, as a field."""
    return SecondOrderODE(ep_field(fam.phi.expr, fam.g.expr), fam.g.memo)
