import numpy as np
import pytest
from hypothesis import settings

import epwb
from epwb.expressions import Binary, Const, CurveVal, Unary, Var

# every run draws the same examples, so two checkouts are compared on equal inputs
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

# every Phi the residual and drift tests sweep
PHI_CATALOG = ("1", "0", "4", "1+0.5*sin(t)", "1.25/((1+t)^2)")

# monotone G catalog for compatible families: (expression, interval)
G_CATALOG = (
    ("exp(4*t)", (0.0, 2.0)),
    ("(1+t)^4", (0.0, 3.0)),
    ("exp(t)", (0.0, 3.0)),
    ("(2+t)^3", (0.0, 3.0)),
)
M_VALUES = (0.0, 1.0, 2.0)

# members of G_CATALOG with non-constant a(t); only there does a constant
# Phi-shift register in the surviving-symmetry residual (for exponential G
# the shifted equation is still scale-invariant, see test_symmetry)
POWER_LAW_G = (
    ("(1+t)^4", (0.0, 3.0)),
    ("(2+t)^3", (0.0, 3.0)),
)


def grid(a: float, b: float, n: int = 201) -> np.ndarray:
    return np.linspace(a, b, n)


@pytest.fixture(scope="session")
def phi_one():
    return epwb.time_function("1")


@pytest.fixture(scope="session")
def phi_sin():
    return epwb.time_function("1+0.5*sin(t)")


@pytest.fixture(scope="session")
def basis_phi1(phi_one):
    return epwb.fundamental_pair(phi_one, (0.0, 20.0))


@pytest.fixture(scope="session")
def basis_sin(phi_sin):
    return epwb.fundamental_pair(phi_sin, (0.0, 20.0))


@pytest.fixture
def diffs(monkeypatch):
    """Every (node, variable) that ``_diff`` is called on from here on (nodes kept alive in the list)."""
    calls = []
    for cls in (Const, Var, Unary, Binary, CurveVal):

        def counting(self, variable, d, original=cls._diff):
            calls.append((self, variable))
            return original(self, variable, d)

        monkeypatch.setattr(cls, "_diff", counting)
    return calls
