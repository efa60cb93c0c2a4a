"""Workbench for Ermakov-Pinney type oscillators.

Solves x'' + Phi(t) x = G(t)/x^3 and its relatives, builds closed-form
superposition solutions over linear oscillator bases, audits the classical
invariants, verifies Lie point symmetries by the linearized symmetry
condition, and reduces compatible (Phi, G) pairs to autonomous form.
Every identity the package implements is checked by residual, never by
trusting a printed formula.
"""

__version__ = "0.1.0"

from .expressions import (
    DomainError,
    Expr,
    ExprSyntaxError,
    TimeFunction,
    UnknownIdentifierError,
    canonical,
    differentiate,
    evaluate,
    parse_expression,
    scalar_kernel,
    time_function,
)
from .ode import (
    COMPLETED,
    GUARD_STOP,
    STEP_FAILURE,
    IntegrationSettings,
    ODESystem,
    Trajectory,
    integrate,
    residual,
    worst_residual,
)
from .oscillator import (
    DegenerateBasisError,
    OscillatorBasis,
    QuadraticFormCurve,
    basis_with_ics,
    fundamental_pair,
    oscillator_system,
    wronskian,
)
from .pinney import (
    EPConfig,
    LewisState,
    SqrtCurve,
    autonomous_energy,
    drift,
    ep_residual,
    ep_system,
    ermakov_invariant,
    invariant_audit,
    lewis_invariant,
    lorentz_adiabatic,
    pinney_solution,
)
from .third_order import (
    ThirdOrderConfig,
    first_integral,
    product_solution,
    rho_substitution,
    third_order_residual,
    third_order_system,
)
from .symmetry import (
    CompatibleFamily,
    PointSymmetry,
    SecondOrderODE,
    autonomous_family,
    basis_family,
    compatible_family,
    default_samples,
    ep_ode,
    killing_form,
    lie_bracket,
    point_symmetry,
    relation,
    structure_constants,
    surviving_symmetry,
    symmetry_condition,
    symmetry_residual,
)
from .reduction import (
    AbelResult,
    CanonicalChart,
    TransformedOrbit,
    abel_residual,
    autonomous_residual,
    canonical_chart,
    transform_trajectory,
)
from .central_field import (
    CentralFieldConfig,
    PolarState,
    angular_momentum_check,
    cartesian_system,
    chart_qualified,
    k_integral,
    polar_from_cartesian,
    polar_system,
    radial_ep_residual,
    simulate_cartesian,
    simulate_polar,
)
from .audit import audit_all, ledger_json
