"""Rectifying chart for the surviving symmetry and the autonomous image.

For a compatible family (Phi, G) the chart

    T = sigma log G(t),  sigma = 1/4
    X = x G'(t)^{1/2} / G(t)^{3/4}

sends Gamma_s to the pure translation d_T (Gamma_s T = 4 sigma, Gamma_s X = 0)
and the equation x'' + Phi x = G/x^3 to the autonomous image

    X'' + 2 X' + Omega X = 16 / X^3,   Omega = 1 + M/C0^2,

primes now with respect to T.  sigma = 1/4 is forced: any other scale leaves
a different first-derivative coefficient, and sigma = 3/4 is kept around only
as the rejected reading for the discriminator audit.  Phase-plane variables
u = X, v = X' then satisfy the second-kind Abel relation

    v dv/du + 2 v + Omega u - 16/u^3 = 0

away from turning points (v = 0), where dv/du is evaluated parametrically as
(dv/dT)/(du/dT).  Dropping a factor u on the linear term and the cube on the
right gives the rejected literal reading, exercised by abel_residual(...,
literal=True).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import DomainError, fail_first
from .ode import X_MIN, Trajectory, worst_residual
from .symmetry import CompatibleFamily, PointSymmetry

FORCING_CONSTANT = 16.0
TURNING_SPEED = 1e-4  # |dX/dT| below which abel_residual skips a sample as a turning point
_VALIDATION_SAMPLES = 100  # points of the interval on which canonical_chart checks G


def _like(t, values):
    """``values`` as a float when ``t`` is a single time, else as an array."""
    return float(values[0]) if np.ndim(t) == 0 else values


@dataclass(frozen=True)
class CanonicalChart:
    """Immutable chart (t, x) -> (T, X) built from a compatible family.

    Every map takes a single time (and returns floats) or arrays over a
    grid (and returns arrays); a grid costs one jet of G.
    """

    fam: CompatibleFamily
    sigma: float = 0.25

    def _g_checked(self, t) -> np.ndarray:
        """Rows G, G', G'', G''' on ``t``, requiring G > 0 and G' > 0."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        g = self.fam.g.jet(ts, 3)
        for order, name in ((0, "G"), (1, "G'")):
            fail_first(g[order] <= 0.0, "{}({!r}) = {!r} is not positive", name, ts, g[order])
        return g

    def _rates(self, t):
        """(T, mu, mu', mu'', T', T'') on ``t``, via logarithmic derivatives of G."""
        g0, g1, g2, g3 = self._g_checked(t)
        mu = np.sqrt(g1) / g0**0.75
        r = 0.5 * g2 / g1 - 0.75 * g1 / g0
        r_dot = 0.5 * (g3 / g1 - (g2 / g1) ** 2) - 0.75 * (g2 / g0 - (g1 / g0) ** 2)
        t1 = self.sigma * g1 / g0
        t2 = self.sigma * (g2 / g0 - (g1 / g0) ** 2)
        return self.sigma * np.log(g0), mu, mu * r, mu * (r * r + r_dot), t1, t2

    def image(self, t, x, xdot, xddot):
        """(T, X, dX/dT, d2X/dT2) of the points (t, x, x', x'') from one jet of G.

        DomainError names the first t where dX/dT or d2X/dT2 is not finite
        (T' = sigma G'/G and its cube can underflow to 0 at a tiny sigma).
        """
        big_t, mu, mu1, mu2, t1, t2 = self._rates(t)
        xt1 = xdot * mu + x * mu1
        xt2 = xddot * mu + 2.0 * xdot * mu1 + x * mu2
        with np.errstate(all="ignore"):
            big_v, big_a = xt1 / t1, (xt2 * t1 - xt1 * t2) / t1**3
        bad = ~(np.isfinite(big_v) & np.isfinite(big_a))
        fail_first(bad, "chart image is not finite at t={!r}", t)
        return big_t, x * mu, big_v, big_a

    def time(self, t):
        return _like(t, self._rates(t)[0])

    def scale(self, t):
        """mu(t) = G'^{1/2}/G^{3/4}; the chart is X = mu(t) x."""
        return _like(t, self._rates(t)[1])

    def position(self, t, x):
        return x * self.scale(t)

    def t_of(self, big_t: float) -> float:
        """Invert T(t) on the chart interval by bisection, to one ulp.

        T = sigma log G is strictly monotone, rising for sigma > 0 and falling
        for sigma < 0; ``lo`` and ``hi`` are the ends where T is least and greatest.
        """
        lo, hi = self.fam.interval if self.sigma > 0 else self.fam.interval[::-1]
        t_lo, t_hi = self.time(lo), self.time(hi)
        if not t_lo <= big_t <= t_hi:
            raise DomainError(f"T={big_t!r} outside chart range [{t_lo!r}, {t_hi!r}]")
        if big_t == t_lo:
            return lo
        if big_t == t_hi:
            return hi
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):  # bisect down to adjacent floats
            lo, hi = (mid, hi) if self.time(mid) < big_t else (lo, mid)
        return mid

    def x_of(self, t, big_x):
        return big_x / self.scale(t)

    def symmetry_applied(self, sym: PointSymmetry, t, x):
        """(Gamma T, Gamma X) at a point or over a grid; for Gamma_s this is (4 sigma, 0)."""
        tau, xi = sym.components(t, x)
        _, mu, mu1, _, t1, _ = self._rates(t)
        return _like(t, tau * t1), _like(t, tau * x * mu1 + xi * mu)


def canonical_chart(fam: CompatibleFamily, sigma: float = 0.25) -> CanonicalChart:
    """Build the chart, checking across the interval that G > 0, G' > 0 and G'', G''' exist.

    ValueError if sigma is 0, which makes T constant.
    """
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero: at sigma = 0, T = sigma log G is constant")
    chart = CanonicalChart(fam=fam, sigma=float(sigma))
    chart._g_checked(np.linspace(fam.interval[0], fam.interval[1], _VALIDATION_SAMPLES))
    return chart


@dataclass(frozen=True)
class TransformedOrbit:
    """A trajectory pushed through a chart: arrays over a common grid."""

    t: np.ndarray
    T: np.ndarray
    X: np.ndarray
    V: np.ndarray
    A: np.ndarray


def transform_trajectory(chart: CanonicalChart, traj: Trajectory, n: int = 400) -> TransformedOrbit:
    """Sample an EP trajectory on ``traj.grid(n)`` and push (t, x, x', x'') through the chart.

    x'' comes from the producing right-hand side at interpolated states,
    never from a differenced interpolant.  The chart's identity then holds
    at each sampled (t, x, x') whether or not it lies on an orbit, so the
    residual of the autonomous image tests the transformation formulas, at
    rounding level, and not the integration.
    """
    if traj.dim != 2:
        raise ValueError("expected a 2-component (x, xdot) trajectory")
    ts = traj.grid(n)
    big_t, big_x, big_v, big_a = chart.image(ts, *traj.jet(ts, 2))
    return TransformedOrbit(t=ts, T=big_t, X=big_x, V=big_v, A=big_a)


def autonomous_residual(orbit: TransformedOrbit, omega: float) -> float:
    """max |X'' + 2 X' + Omega X - 16/X^3| along the transformed orbit; X must stay >= X_MIN."""
    message = "transformed orbit approaches X = 0: X={!r} at T={!r}"
    fail_first(orbit.X < X_MIN, message, orbit.X, orbit.T)
    res = orbit.A + 2.0 * orbit.V + omega * orbit.X - FORCING_CONSTANT / orbit.X**3
    return worst_residual(res)


@dataclass(frozen=True)
class AbelResult:
    residual: float
    samples_used: int
    samples_skipped: int


def abel_residual(orbit: TransformedOrbit, omega: float, literal: bool = False) -> AbelResult:
    """Phase-plane relation residual in (u, v) = (X, dX/dT).

    dv/du is formed parametrically as (dv/dT)/(du/dT); samples with
    |du/dT| < TURNING_SPEED are turning points, excluded and counted, and
    ValueError says so when every sample is one.  literal=True evaluates
    the rejected reading (linear term without u, 16/u instead of 16/u^3)
    for the discriminator audit.
    """
    keep = ~(np.abs(orbit.V) < TURNING_SPEED)
    used = int(np.count_nonzero(keep))
    if used == 0:
        raise ValueError("every sample sits at a turning point; nothing to check")
    u, v, a = orbit.X[keep], orbit.V[keep], orbit.A[keep]
    fail_first(u < X_MIN, "phase variable u approaches 0: u={!r} at T={!r}", u, orbit.T[keep])
    dv_du = a / v
    if literal:
        r = v * dv_du + 2.0 * v + omega - FORCING_CONSTANT / u
    else:
        r = v * dv_du + 2.0 * v + omega * u - FORCING_CONSTANT / u**3
    skipped = len(orbit.V) - used
    return AbelResult(residual=worst_residual(r), samples_used=used, samples_skipped=skipped)
