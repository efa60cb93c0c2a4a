"""Linear oscillator bases z'' + Phi(t) z = 0 and curves built over them.

A basis is a pair of independent solutions (u, v) with constant Wronskian
W = u v' - u' v.  Because the equation supplies every higher derivative
(z'' = -Phi z), curves defined over a basis expose exact derivatives of any
order through ``jet(ts, k)``, even though u and v themselves are numeric:
the Leibniz rule z^(m+2) = -sum_j C(m,j) Phi^(j) z^(m-j) extends the
sampled rows (z, z') one order at a time, and products of jets follow the
product rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import TimeFunction, var
from .ode import IntegrationSettings, ODESystem, Trajectory, integrate


_X, _V = var("x"), var("v")
_PAIR = ("u", "du", "v", "dv")
_U, _DU, _PV, _DV = map(var, _PAIR)


class DegenerateBasisError(ValueError):
    """Solution pair is (numerically) linearly dependent."""


def oscillator_system(phi: TimeFunction) -> ODESystem:
    """State (x, v) of x'' = -phi x."""
    return ODESystem(("x", "v"), (_V, -phi.expr * _X))


def _pair_system(phi: TimeFunction) -> ODESystem:
    """State (u, u', v, v') of two solutions of x'' = -phi x.

    Both accelerations use the one node -phi, so ``rhs`` computes phi once.
    """
    minus_phi = -phi.expr
    return ODESystem(_PAIR, (_DU, minus_phi * _U, _DV, minus_phi * _PV))


@dataclass(frozen=True)
class OscillatorBasis:
    """Two solutions integrated as one trajectory ``pair`` of (u, u', v, v').

    ``u`` and ``v`` are trajectories of ``oscillator_system(phi)`` whose
    arrays are views on the pair's.
    """

    phi: TimeFunction
    pair: Trajectory
    wronskian0: float
    u: Trajectory = field(init=False, repr=False, compare=False)
    v: Trajectory = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sys = oscillator_system(self.phi)
        object.__setattr__(self, "u", self.pair.columns(slice(0, 2), sys))
        object.__setattr__(self, "v", self.pair.columns(slice(2, 4), sys))

    @property
    def interval(self) -> tuple[float, float]:
        return (self.pair.t0, self.pair.t_end)


def basis_with_ics(
    phi: TimeFunction,
    interval: tuple[float, float],
    ic_u: tuple[float, float],
    ic_v: tuple[float, float],
    settings: IntegrationSettings | None = None,
) -> OscillatorBasis:
    w0 = ic_u[0] * ic_v[1] - ic_u[1] * ic_v[0]
    if abs(w0) < 1e-12:
        raise DegenerateBasisError(f"initial conditions give Wronskian {w0!r}")
    pair = integrate(_pair_system(phi), (*ic_u, *ic_v), interval, settings)
    if pair.status != "completed":
        raise RuntimeError(f"basis pair failed: {pair.status} ({pair.message})")
    return OscillatorBasis(phi=phi, pair=pair, wronskian0=w0)


def fundamental_pair(
    phi: TimeFunction,
    interval: tuple[float, float],
    settings: IntegrationSettings | None = None,
) -> OscillatorBasis:
    """Basis with u(t0), u'(t0) = (1, 0) and v(t0), v'(t0) = (0, 1), so W = 1."""
    return basis_with_ics(phi, interval, (1.0, 0.0), (0.0, 1.0), settings)


def wronskian(basis: OscillatorBasis, t):
    """W = u v' - u' v: a float at a scalar t, an array over a grid."""
    u, du, v, dv = basis.pair.sample(t).T
    w = u * dv - du * v
    return float(w) if np.ndim(t) == 0 else w


def _component_jet(z: np.ndarray, phi, k: int) -> np.ndarray:
    """Jet of one basis solution from its sampled rows (z, z'): z'' = -Phi z by Leibniz."""
    jet = np.empty((k + 1, z.shape[1]))
    jet[:2] = z[: k + 1]
    for m in range(k - 1):
        jet[m + 2] = -sum(math.comb(m, j) * phi[j] * jet[m - j] for j in range(m + 1))
    return jet


def _product_jet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet of a*b by the product rule (a, b jets of equal order)."""
    return np.array(
        [sum(math.comb(o, j) * a[j] * b[o - j] for j in range(o + 1)) for o in range(len(a))]
    )


class QuadraticFormCurve:
    """w(t) = A u^2 + 2B uv + C v^2 over a basis; derivatives to any order."""

    def __init__(self, basis: OscillatorBasis, A: float, B: float, C: float):
        self.basis = basis
        self.A, self.B, self.C = float(A), float(B), float(C)

    def jet(self, ts, k: int) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        phi = self.basis.phi.jet(ts, k - 2) if k >= 2 else None  # shared by u and v
        rows = self.basis.pair.sample(ts).T  # one read of (u, u', v, v')
        u = _component_jet(rows[:2], phi, k)
        v = _component_jet(rows[2:], phi, k)
        return (
            self.A * _product_jet(u, u)
            + 2.0 * self.B * _product_jet(u, v)
            + self.C * _product_jet(v, v)
        )
