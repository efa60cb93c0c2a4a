"""Planar time-dependent oscillator with optional tangential forcing.

The radial coordinate of x'' = -Phi(t) x (2D) obeys r'' + Phi r = L0^2/r^3
with L0 the conserved angular momentum r^2 theta' , which is how the cubic
forcing term arises in the first place.  Adding a tangential acceleration
k(t)/r makes d(r^2 theta')/dt = k, so the angular momentum acquires the
formal integral L(t) = L0 + int k dt and the radial equation keeps its form
with G(t) = L(t)^2.

State for the polar integrator is (r, r', theta, L) rather than
(r, r', theta, theta'): L' = k(t) is exact up to quadrature, so the formal
integral is checked against an independent quadrature of k by the same
integrator, and theta' = L/r^2 has no coordinate singularity of its own.
theta is left unwrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expressions import DomainError, TimeFunction, fail_first, var
from .ode import X_MIN, IntegrationSettings, ODESystem, Trajectory, integrate, worst_residual
from .pinney import drift


@dataclass(frozen=True)
class CentralFieldConfig:
    """Isotropic spring rate Phi(t), tangential forcing k(t) (may be zero)."""

    phi: TimeFunction
    k: TimeFunction


@dataclass(frozen=True)
class PolarState:
    """(r, r', theta, theta') of a point off the origin, as a run starts from; ValueError if r <= 0."""

    r: float
    rdot: float
    theta: float
    thetadot: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError(f"initial radius must be positive, got {self.r!r}")

    @property
    def angular_momentum(self) -> float:
        return self.r * self.r * self.thetadot


def polar_system(cfg: CentralFieldConfig) -> ODESystem:
    """(r, r', theta, L) with r'' = -Phi r + L^2/r^3, theta' = L/r^2, L' = k, on r >= x_min."""
    names = ("r", "rdot", "theta", "L")
    r, rdot, _, ell = map(var, names)
    fields = (rdot, -cfg.phi.expr * r + ell * ell / (r * r * r), ell / (r * r), cfg.k.expr)
    return ODESystem(names, fields, domain=(r,))


def simulate_polar(
    cfg: CentralFieldConfig,
    init: PolarState,
    interval: tuple[float, float],
    settings: IntegrationSettings = IntegrationSettings(),
) -> Trajectory:
    y0 = [init.r, init.rdot, init.theta, init.angular_momentum]
    return integrate(polar_system(cfg), y0, interval, settings)


def k_integral(
    cfg: CentralFieldConfig,
    interval: tuple[float, float],
    settings: IntegrationSettings = IntegrationSettings(),
) -> Trajectory:
    """Quadrature K(t) = int_{t0}^{t} k ds as a one-component trajectory.

    The checks below read it as ``quad``, which carries the settings it
    was integrated with; without one they integrate it over the
    trajectory's range with the default settings.  A caller running all
    three integrates it once, with its own settings, and passes it to each.
    """
    return integrate(ODESystem(("K",), (cfg.k.expr,)), [0.0], interval, settings)


def _formal_integral(traj: Trajectory, cfg: CentralFieldConfig, n: int, quad: Trajectory | None):
    """The grid ``traj.grid(n)`` and K(t) on it, read from ``quad`` or a fresh ``k_integral``."""
    if quad is None:
        quad = k_integral(cfg, (traj.t0, traj.t_end))
    ts = traj.grid(n)
    return ts, quad.sample(ts)[:, 0]


def angular_momentum_check(
    traj: Trajectory,
    cfg: CentralFieldConfig,
    n: int = 200,
    quad: Trajectory | None = None,
) -> float:
    """Relative drift of L(t) - int k dt on ``n`` points of a polar orbit (``quad``: k_integral)."""
    grid, big_k = _formal_integral(traj, cfg, n, quad)
    return drift(traj.sample(grid)[:, 3] - big_k)


def radial_ep_residual(
    traj: Trajectory,
    cfg: CentralFieldConfig,
    n: int = 200,
    quad: Trajectory | None = None,
) -> float:
    """max |r'' + Phi r - G/r^3| on ``n`` points, G = (L(t0) + int k)^2 from ``quad`` (k_integral).

    r'' comes from the producing right-hand side, which carries the evolved
    L(t); the residual therefore measures how well the formal integral
    reproduces the angular momentum, i.e. the identity itself.  r must stay
    at or above X_MIN, the floor of the other residuals.
    """
    ts, big_k = _formal_integral(traj, cfg, n, quad)
    r, _, rddot = traj.jet(ts, 2)
    fail_first(r < X_MIN, "radius {!r} too close to the axis at t={!r}", r, ts)
    g = (traj.states[0][3] + big_k) ** 2
    return worst_residual(rddot + cfg.phi.jet(ts, 0)[0] * r - g / r**3)


def cartesian_system(cfg: CentralFieldConfig) -> ODESystem:
    """(x, x', y, y') with acceleration -Phi pos + (k/r) e_theta, on x^2 + y^2 > 0 (no floor)."""
    names = ("x", "xdot", "y", "ydot")
    x, xdot, y, ydot = map(var, names)
    minus_phi, k, r2 = -cfg.phi.expr, cfg.k.expr, x * x + y * y
    fields = (xdot, minus_phi * x - k * y / r2, ydot, minus_phi * y + k * x / r2)
    return ODESystem(names, fields, domain=(r2,))


def simulate_cartesian(
    cfg: CentralFieldConfig,
    init: PolarState,
    interval: tuple[float, float],
    settings: IntegrationSettings = IntegrationSettings(),
) -> Trajectory:
    """Integrate the same system in Cartesian coordinates (cross-check).

    ``settings.x_min`` does not apply: the domain x^2 + y^2 is no state
    variable, so nothing is floored; the domain check keeps states finite.
    """
    c, s = math.cos(init.theta), math.sin(init.theta)
    x = init.r * c
    y = init.r * s
    xdot = init.rdot * c - init.r * init.thetadot * s
    ydot = init.rdot * s + init.r * init.thetadot * c
    return integrate(cartesian_system(cfg), [x, xdot, y, ydot], interval, settings)


def polar_from_cartesian(state) -> PolarState:
    """Convert (x, x', y, y') to a PolarState; theta in (-pi, pi]."""
    x, xdot, y, ydot = state
    r = math.hypot(x, y)
    if r == 0.0:
        raise DomainError("radius 0 has no polar chart")
    return PolarState(
        r=r,
        rdot=(x * xdot + y * ydot) / r,
        theta=math.atan2(y, x),
        thetadot=(x * ydot - y * xdot) / (r * r),
    )


def chart_qualified(
    traj: Trajectory,
    cfg: CentralFieldConfig,
    n: int = 200,
    quad: Trajectory | None = None,
) -> bool:
    """Whether G = (L0 + int k)^2 has G' > 0 on ``n`` points of the orbit (``quad``: k_integral).

    G' = 2 L k, so a forced run qualifies for a reduction chart exactly when
    the angular momentum and the forcing keep one common sign.
    """
    ts, big_k = _formal_integral(traj, cfg, n, quad)
    ell = traj.states[0][3] + big_k
    return bool(np.all(2.0 * ell * cfg.k.jet(ts, 0)[0] > 0.0))
