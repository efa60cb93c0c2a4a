import builtins
import copy
import dataclasses
import functools
import gc
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings

import epwb
from epwb import (
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    autonomous_family,
    canonical,
    compatible_family,
    differentiate,
    ep_ode,
    evaluate,
    fundamental_pair,
    parse_expression,
    scalar_kernel,
    structure_constants,
    surviving_symmetry,
    symmetry_residual,
    time_function,
)
from epwb import cli, expressions
from epwb.central_field import CentralFieldConfig, PolarState, radial_ep_residual, simulate_polar
from epwb.expressions import (
    Binary,
    Const,
    CurveVal,
    TimeFunction,
    Unary,
    Var,
    const,
    cos,
    exp,
    log,
    sin,
    sqrt,
    var,
)
from epwb.ode import IntegrationSettings, integrate, residual
from epwb.oscillator import QuadraticFormCurve, basis_with_ics, oscillator_system
from epwb.pinney import EPConfig, SqrtCurve, ep_residual, ep_system, ermakov_invariant
from epwb.reduction import CanonicalChart, TransformedOrbit, abel_residual, autonomous_residual
from epwb.symmetry import SecondOrderODE, basis_family, default_samples, symmetry_condition
from epwb.third_order import ThirdOrderConfig, first_integral, rho_substitution


class TestParsing:
    def test_bare_variable(self):
        e = parse_expression("t")
        assert isinstance(e, Var)
        assert e.name == "t"

    def test_function_application_structure(self):
        e = parse_expression("sin(2*t)")
        assert isinstance(e, Unary)
        assert e.op == "sin"
        assert isinstance(e.arg, Binary)
        assert e.arg.op == "*"

    def test_exp_at_zero(self):
        assert evaluate(parse_expression("exp(4*t)"), {"t": 0.0}) == 1.0

    def test_precedence_mul_over_add(self):
        assert evaluate(parse_expression("1+2*3"), {"t": 0.0}) == 7.0

    def test_precedence_pow_over_mul(self):
        assert evaluate(parse_expression("2*t^3"), {"t": 2.0}) == 16.0

    def test_pow_right_associative(self):
        assert evaluate(parse_expression("2^3^2"), {"t": 0.0}) == 512.0

    def test_unary_minus_binds_below_pow(self):
        # -t^2 reads -(t^2)
        assert evaluate(parse_expression("-t^2"), {"t": 3.0}) == -9.0

    def test_double_star_alias(self):
        assert evaluate(parse_expression("t**3"), {"t": 2.0}) == 8.0

    def test_whitespace_insensitive(self):
        a = evaluate(parse_expression("1 +  2 * sin( t )"), {"t": 0.7})
        b = evaluate(parse_expression("1+2*sin(t)"), {"t": 0.7})
        assert a == b

    def test_left_associative_sub(self):
        assert evaluate(parse_expression("10-3-2"), {"t": 0.0}) == 5.0

    def test_division_chain(self):
        assert evaluate(parse_expression("8/4/2"), {"t": 0.0}) == 1.0

    def test_scientific_notation(self):
        assert evaluate(parse_expression("1.5e2"), {"t": 0.0}) == 150.0

    def test_multiple_variables(self):
        e = parse_expression("x*v+t", ("t", "x", "v"))
        assert evaluate(e, {"t": 1.0, "x": 2.0, "v": 3.0}) == 7.0


class TestParseErrors:
    def test_unclosed_call_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("sin(")
        assert exc.value.offset == 4

    def test_trailing_operator(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("2*")
        assert exc.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_expression("2*y")
        assert exc.value.name == "y"
        assert exc.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("   ")
        assert exc.value.offset == 0

    @pytest.mark.parametrize("text, offset", [("sin(1e400)", 4), ("t+1.5e999", 2)])
    def test_non_finite_literal_reports_offset(self, text, offset):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression(text)
        assert exc.value.offset == offset

    def test_dangling_close_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("(1+2))")

    def test_x_rejected_for_time_only_expression(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("x+1")


class TestDifferentiation:
    def test_chain_rule_sin(self):
        d = differentiate(parse_expression("sin(2*t)"))
        for t in (0.0, 0.3, 1.7):
            assert evaluate(d, {"t": t}) == pytest.approx(2.0 * math.cos(2.0 * t), abs=1e-14)
        assert evaluate(d, {"t": 0.0}) == 2.0

    def test_constant_derivative_is_zero(self):
        d = differentiate(parse_expression("7"))
        assert evaluate(d, {"t": 123.0}) == 0.0

    def test_third_derivative_of_exponential(self):
        f = time_function("exp(4*t)")
        assert f.eval(0.0, 3) == pytest.approx(64.0, rel=1e-14)

    def test_power_rule_integer(self):
        f = time_function("t^4")
        assert f.eval(1.0, 3) == pytest.approx(24.0, rel=1e-14)

    def test_general_power_derivative(self):
        # d/dt t^t = t^t (log t + 1)
        d = differentiate(parse_expression("t^t"))
        t = 2.0
        assert evaluate(d, {"t": t}) == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)

    def test_quotient(self):
        d = differentiate(parse_expression("1/t"))
        assert evaluate(d, {"t": 2.0}) == pytest.approx(-0.25, rel=1e-14)

    def test_sqrt_chain(self):
        d = differentiate(parse_expression("sqrt(1+t^2)"))
        t = 0.7
        assert evaluate(d, {"t": t}) == pytest.approx(t / math.sqrt(1 + t * t), rel=1e-12)

    def test_second_derivative_association_independent(self):
        parts = ("sin(2*t)", "t^3", "exp(t)")
        left = parse_expression(f"(({parts[0]}+{parts[1]})+{parts[2]})")
        right = parse_expression(f"({parts[0]}+({parts[1]}+{parts[2]}))")
        d2l = differentiate(differentiate(left))
        d2r = differentiate(differentiate(right))
        for t in np.linspace(0.1, 2.0, 7):
            a, b = evaluate(d2l, {"t": t}), evaluate(d2r, {"t": t})
            assert a == pytest.approx(b, rel=1e-12)

    def test_partial_derivatives_by_variable(self):
        e = parse_expression("x^2*v+t*x", ("t", "x", "v"))
        env = {"t": 2.0, "x": 3.0, "v": 5.0}
        assert evaluate(differentiate(e, "x"), env) == pytest.approx(2 * 3 * 5 + 2, rel=1e-14)
        assert evaluate(differentiate(e, "v"), env) == pytest.approx(9.0, rel=1e-14)
        assert evaluate(differentiate(e, "t"), env) == pytest.approx(3.0, rel=1e-14)


class TestEvalDomain:
    def test_exp_value(self):
        assert time_function("exp(4*t)").eval(0.5) == pytest.approx(math.e**2, rel=1e-14)

    def test_log_singularity(self):
        with pytest.raises(DomainError):
            time_function("log(t)").eval(0.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            time_function("1/t").eval(0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            time_function("sqrt(t)").eval(-1.0)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(DomainError):
            evaluate(parse_expression("t^0.5"), {"t": -2.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            evaluate(parse_expression("t^(0-1)"), {"t": 0.0})

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            time_function("exp(t)").eval(1e6)

    def test_no_nan_from_integer_power_of_negative(self):
        assert evaluate(parse_expression("t^3"), {"t": -2.0}) == -8.0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("op", ["sin", "cos"])
    def test_trig_of_non_finite_is_domain_error(self, op, value):
        # math.sin(inf) raises a plain ValueError, which would escape the
        # integrator's DomainError handling
        e = parse_expression(f"{op}(t)")
        with pytest.raises(DomainError):
            scalar_kernel(e)(value)
        with pytest.raises(DomainError):
            evaluate(e, {"t": np.array([0.0, value])})

    def test_order_zero_equals_direct_eval(self):
        f = time_function("sin(3*t)+t^2")
        for t in (0.0, 0.4, 1.9):
            assert f.eval(t, 0) == evaluate(f.expr, {"t": t})


class TestTimeFunction:
    def test_derivative_orders(self):
        f = time_function("sin(2*t)")
        t = 0.6
        assert f.eval(t, 0) == pytest.approx(math.sin(2 * t), rel=1e-14)
        assert f.eval(t, 1) == pytest.approx(2 * math.cos(2 * t), rel=1e-14)
        assert f.eval(t, 2) == pytest.approx(-4 * math.sin(2 * t), rel=1e-14)
        assert f.eval(t, 3) == pytest.approx(-8 * math.cos(2 * t), rel=1e-14)

    def test_higher_orders_extend_lazily(self):
        f = time_function("exp(2*t)")
        assert f.eval(0.0, 5) == pytest.approx(32.0, rel=1e-12)

    def test_finite_difference_consistency(self):
        # |symbolic - FD(h)| <= C h^2 for h in {1e-3, 1e-4}
        for text in ("exp(4*t)", "sin(2*t)*t", "1/(1+t^2)", "sqrt(1+t^2)"):
            f = time_function(text)
            for t in np.linspace(0.2, 1.8, 5):
                sym = f.eval(t, 1)
                errs = []
                for h in (1e-3, 1e-4):
                    fd = (f.eval(t + h) - f.eval(t - h)) / (2 * h)
                    errs.append(abs(sym - fd))
                scale = max(1.0, abs(sym))
                assert errs[0] <= 100.0 * 1e-6 * scale
                assert errs[1] <= 100.0 * 1e-8 * scale

    def test_scaled(self):
        f = time_function("t^2").scaled(0.5)
        assert f.eval(3.0) == pytest.approx(4.5, rel=1e-14)
        assert f.eval(3.0, 1) == pytest.approx(3.0, rel=1e-14)

    def test_order_defaults_to_zero(self):
        assert time_function("2*t").eval(3.0) == 6.0


class TestCanonicalForm:
    def test_example_form(self):
        e = parse_expression("2*cos(2*t)")
        assert canonical(e) == "((2)*(cos((2)*(t))))"

    def test_round_trip_examples(self):
        for text in ("1+2*t", "sin(t)^2+cos(t)^2", "-t^3/(1+t)", "exp(4*t)-1"):
            e = parse_expression(text)
            back = parse_expression(canonical(e))
            for t in (0.1, 0.9, 2.3):
                assert evaluate(back, {"t": t}) == pytest.approx(evaluate(e, {"t": t}), rel=1e-14)

    def test_structural_equality_implies_equal_eval(self):
        a = parse_expression("sin(2*t)+t^2")
        b = parse_expression("sin(2*t)+t^2")
        assert a == b
        assert evaluate(a, {"t": 0.37}) == evaluate(b, {"t": 0.37})


# --- property-based checks ---------------------------------------------------

_leaf = st.one_of(
    st.just(var("t")),
    st.integers(min_value=-3, max_value=3).map(lambda k: const(float(k))),
    st.floats(min_value=0.25, max_value=2.5).map(lambda v: const(round(v, 3))),
)


def _combine(children):
    binops = st.sampled_from(["+", "-", "*", "/"])
    unops = st.sampled_from(["sin", "cos", "exp", "sqrt", "log"])
    return st.one_of(
        st.tuples(binops, children, children).map(
            lambda p: Binary(p[0], p[1], p[2])
        ),
        st.tuples(unops, children).map(lambda p: Unary(p[0], p[1])),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda p: Binary("^", p[0], Const(float(p[1])))
        ),
    )


_expr = st.recursive(_leaf, _combine, max_leaves=12)

# operands at and around each rule's boundary: signed zeros and subnormals,
# the ends of the float range, exp's overflow and underflow thresholds, and
# fractional and integral exponents
_SPECIAL = (
    0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300,
    1.7e308, -1.7e308, 709.0, 710.0, -745.0, -746.0, 1 / 3, -2.5, 1e-8,
)


def _try_eval(e, t):
    try:
        v = float(evaluate(e, {"t": t}))
    except DomainError:
        return None
    return v if abs(v) < 1e6 else None


@settings(max_examples=80, deadline=None)
@given(e=_expr, t=st.floats(min_value=0.3, max_value=0.7))
def test_symbolic_derivative_matches_finite_difference(e, t):
    d = differentiate(e)
    sym = _try_eval(d, t)
    assume(sym is not None)
    h = 1e-4
    lo, hi = _try_eval(e, t - h), _try_eval(e, t + h)
    assume(lo is not None and hi is not None)
    # skip points where the slope itself is changing violently
    curv = _try_eval(differentiate(d), t)
    assume(curv is not None and abs(curv) < 1e4)
    fd = (hi - lo) / (2 * h)
    assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym))


@settings(max_examples=80, deadline=None)
@given(e=_expr, t=st.floats(min_value=0.3, max_value=0.7))
def test_print_parse_round_trip(e, t):
    v = _try_eval(e, t)
    assume(v is not None)
    back = parse_expression(canonical(e))
    assert evaluate(back, {"t": t}) == pytest.approx(v, rel=1e-12, abs=1e-12)


def _reference_canonical(e):
    """The printer as two mutually recursive functions, without a memo."""

    def inner(e):
        if isinstance(e, Const):
            return expressions._format_number(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Unary):
            if e.op == "neg":
                return "-" + _reference_canonical(e.arg)
            return e.op + "(" + inner(e.arg) + ")"
        if isinstance(e, Binary):
            return _reference_canonical(e.left) + e.op + _reference_canonical(e.right)
        if isinstance(e, CurveVal):
            return e.label + "'" * e.order
        raise AssertionError(f"unprintable node {e!r}")

    return "(" + inner(e) + ")"


@settings(max_examples=200, deadline=None)
@given(e=_expr)
def test_canonical_prints_what_the_reference_printer_does(e):
    assert canonical(e) == _reference_canonical(e)


def test_canonical_prints_a_shared_subtree_dag_as_the_reference_does():
    # a derived phi reuses G and its derivatives in many places
    fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
    u = -Unary("sin", fam.phi.expr) * CurveVal(_Line(), 2, "c")
    dag = u * u + differentiate(u, "t") / u
    assert canonical(dag) == _reference_canonical(dag)


@settings(max_examples=200, deadline=None)
@given(
    e=_expr,
    t0=st.floats(min_value=-2.0, max_value=2.0),
    width=st.floats(min_value=0.0, max_value=3.0),
    special=st.none() | st.sampled_from(_SPECIAL),
    at=st.integers(min_value=0, max_value=8),
)
# NumPy's exp(t) is one bit below libm's here; the kernel's message is
# evaluate's, so it shows NumPy's operand of the failing sqrt
@example(e=parse_expression("sqrt(sin(exp(t)))"), t0=1.20703125, width=0.0, special=None, at=0)
def test_grid_evaluation_matches_pointwise_eval(e, t0, width, special, at):
    kernel = scalar_kernel(e)
    ts = np.linspace(t0, t0 + width, 9)
    if special is not None:
        ts[at] = special
    try:
        points = [kernel(float(t)) for t in ts]
    except DomainError:
        with pytest.raises(DomainError):
            evaluate(e, {"t": ts})
    else:
        np.testing.assert_allclose(evaluate(e, {"t": ts}), points, rtol=1e-12, atol=0.0)
    # on one point both paths raise the same message, or neither raises
    assert _message(lambda: kernel(t0)) == _message(lambda: evaluate(e, {"t": np.array([t0])}))


def _message(run):
    """The message of the DomainError that ``run()`` raises, or None."""
    try:
        run()
    except DomainError as exc:
        return str(exc)
    return None


_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?![\w.])")


def _rule_and_operands(message):
    """A DomainError message (or None) as its text with each number a '#', and those numbers."""
    if message is None:
        return None, []
    return _NUMBER.sub("#", message), [float(n) for n in _NUMBER.findall(message)]



class TestGridEvaluation:
    def test_result_has_the_grid_shape(self):
        ts = np.linspace(0.0, 1.0, 4)
        np.testing.assert_array_equal(evaluate(parse_expression("2"), {"t": ts}), np.full(4, 2.0))
        e = parse_expression("x*v+t", ("t", "x", "v"))
        out = evaluate(e, {"t": 1.0, "x": np.arange(3.0), "v": 2.0})
        np.testing.assert_array_equal(out, [1.0, 3.0, 5.0])

    @pytest.mark.parametrize(
        "text, bad",
        [
            ("log(t)", 0.0),
            ("1/t", 0.0),
            ("sqrt(t)", -1.0),
            ("t^0.5", -2.0),
            ("t^0.5", 0.0),
            ("t^(0-1)", 0.0),
            ("exp(t)", 1e6),
            ("t*t", 1e200),
        ],
    )
    def test_one_bad_point_raises(self, text, bad):
        e = parse_expression(text)
        with pytest.raises(DomainError) as exc:
            evaluate(e, {"t": np.array([1.0, bad, 2.0])})
        assert str(exc.value) == _message(lambda: scalar_kernel(e)(bad))  # the bad point's values

    def test_a_subtree_shared_by_two_roots_runs_once(self, monkeypatch):
        u = sin(var("t"))
        ts = np.linspace(0.0, 1.0, 3)
        ops = _counted_grid_ops(monkeypatch, 10)
        square, double = evaluate([u * u, u + u], {"t": ts})
        assert ops == ["finite", "sin", "*", "+"]  # t and sin(t) run once for both roots
        np.testing.assert_array_equal(square, np.sin(ts) * np.sin(ts))
        np.testing.assert_array_equal(double, np.sin(ts) + np.sin(ts))

    def test_positive_trees_are_checked_first(self):
        ts = np.array([0.5, -1.0, 2.0])
        with pytest.raises(DomainError, match=re.escape("outside the domain t > 0 (value -1.0)")):
            evaluate(parse_expression("log(t)"), {"t": ts}, positive=(var("t"),))
        assert evaluate([], {"t": ts}, positive=(var("t") + 2.0,)) == []

    def test_evaluate_compiles_nothing(self, compiled):
        # every operation's function exists from import on, so no tree shape compiles code
        t = var("t")
        trees = [sin(t) ** 3.5 - exp(-t) / (1.0 + sqrt(t)), log(cos(t) + 2.0) * t ** t]
        evaluate(trees, {"t": np.linspace(0.1, 1.0, 4)})
        assert compiled == []


class TestCurveJets:
    """``evaluate`` reads each curve once per call, and takes lower orders from that jet's rows."""

    TS = np.linspace(0.3, 9.7, 11)

    @pytest.fixture
    def curves(self, basis_sin, phi_sin):
        w = QuadraticFormCurve(basis_sin, 1.0, 0.3, 2.0)
        # each curve of the package with the highest order it gives
        return [(w, 5), (SqrtCurve(w), 4), (basis_sin.u, 2), (phi_sin, 3)]

    def test_rows_are_the_lower_orders(self, curves):
        for curve, top in curves:
            high = curve.jet(self.TS, top)
            for k in range(top):
                np.testing.assert_array_equal(high[: k + 1], curve.jet(self.TS, k))

    @pytest.mark.parametrize("descending", [True, False])
    def test_values_are_each_order_read_alone(self, curves, descending):
        for curve, top in curves:
            orders = sorted(range(top + 1), reverse=descending)
            values = evaluate([CurveVal(curve, k) for k in orders], {"t": self.TS})
            for k, value in zip(orders, values):
                np.testing.assert_array_equal(value, curve.jet(self.TS, k)[k])

    def test_a_basis_member_reads_its_curve_once(self, monkeypatch, basis_sin, phi_sin):
        orders = []
        jet = QuadraticFormCurve.jet
        monkeypatch.setattr(QuadraticFormCurve, "jet", lambda self, ts, k: orders.append(k) or jet(self, ts, k))
        ode = SecondOrderODE.from_ep(phi_sin, time_function("1"))
        symmetry_residual(basis_family(basis_sin)[0], ode, default_samples((0.0, 10.0)))
        assert orders == [3]


def _bounded_calls(monkeypatch, cls, name, limit):
    """Count calls of ``cls.name``; fail fast once they pass ``limit``."""
    calls = []
    original = getattr(cls, name)

    def counting(self, *args):
        calls.append(self)
        if len(calls) > limit:
            raise AssertionError(f"{cls.__name__}.{name} called more than {limit} times")
        return original(self, *args)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_dag_is_differentiated_and_evaluated_once_per_node(monkeypatch):
    # 40 levels, each node using its child twice: 2^40 paths through the tree
    e = sin(var("t"))
    for _ in range(40):
        e = Binary("-", Binary("*", Const(2.0), e), e)  # 2a - a == a exactly
    diffs = _bounded_calls(monkeypatch, Binary, "_diff", 200)
    d = differentiate(e)
    assert len(diffs) == 80
    grids = _counted_grid_ops(monkeypatch, 400)
    ts = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_array_equal(evaluate(e, {"t": ts}), np.sin(ts))
    np.testing.assert_array_equal(evaluate(d, {"t": ts}), np.cos(ts))
    assert len(grids) <= 400


def _counted_grid_ops(monkeypatch, limit):
    """The operation of every grid function ``evaluate`` calls; fail fast past ``limit``."""
    calls = []

    def counting(*args, op, function):
        calls.append(op)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} grid operations")
        return function(*args)

    for op, function in expressions._GRID.items():
        monkeypatch.setitem(expressions._GRID, op, functools.partial(counting, op=op, function=function))
    return calls


@pytest.fixture
def kernels(monkeypatch):
    """Count the scalar kernels built, and the calls of any of them, from here on."""
    log = {"builds": 0, "calls": 0}
    original = expressions.KernelParts.kernel

    def counting(parts):
        kernel = original(parts)
        log["builds"] += 1

        def call(*args):
            log["calls"] += 1
            return kernel(*args)

        return call

    # every kernel is assembled here, whether built by scalar_kernel or by a system
    monkeypatch.setattr(expressions.KernelParts, "kernel", counting)
    return log


def test_grid_callers_never_walk_per_point(kernels):
    fam = compatible_family(time_function("(1+t)^4"), 1.0, 1.0, (0.0, 3.0))
    sym, equation = surviving_symmetry(fam), ep_ode(fam)
    basis_syms = basis_family(fundamental_pair(time_function("1+0.5*sin(t)"), (0.0, 4.0)))
    family = autonomous_family(1.0)
    samples = default_samples((0.0, 3.0))
    points = [(t, x) for t in np.linspace(0.3, 2.7, 7) for x in (0.7, 1.1, 1.9)]
    traj = integrate(ep_system(EPConfig(phi=fam.phi, g=fam.g)), [1.0, 0.0], (0.0, 3.0))
    forced = CentralFieldConfig(time_function("1+0.3*cos(2*t)"), time_function("0.05*sin(t)"))
    polar = simulate_polar(forced, PolarState(1.0, 0.1, 0.0, 0.8), (0.0, 5.0))
    before = dict(kernels)  # integrating called the right-hand sides
    assert before["calls"] > 0
    symmetry_residual(sym, equation, samples)
    symmetry_residual(basis_syms[1], equation, samples)
    structure_constants(family, points)
    fam.phi.jet(np.linspace(0.0, 3.0, 50), 3)
    ts = np.linspace(0.0, 3.0, 101)
    traj.jet(ts, 2)
    residual(traj.system, traj, ts)
    assert kernels == before

    def no_rhs(t, y):
        raise AssertionError("a grid path called a right-hand side")

    # the radial residual integrates its own quadrature of k, so it is
    # checked against the polar system's right-hand side alone
    polar.system = dataclasses.replace(polar.system, rhs=no_rhs)
    radial_ep_residual(polar, forced, n=101)


def test_scalar_callers_compile_once_and_reuse(kernels):
    fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
    assert kernels["builds"] == 0  # building trees compiles nothing
    system = ep_system(EPConfig(phi=fam.phi, g=fam.g))
    assert kernels["builds"] == 0  # a system compiles its right-hand side when first read
    rhs_calls = 0

    def counting_rhs(t, y):
        nonlocal rhs_calls
        rhs_calls += 1
        return system.rhs(t, y)

    traj = integrate(dataclasses.replace(system, rhs=counting_rhs), [1.0, 0.0], (0.0, 0.5))
    assert len(traj.times) > 10
    assert kernels["builds"] == 1  # the whole EP field, phi and g inlined
    assert kernels["calls"] == rhs_calls > 10 * len(traj.times)  # one per right-hand side
    sym = surviving_symmetry(fam)
    built, called = kernels["builds"], kernels["calls"]
    for t in (0.1, 0.2, 0.3):
        tau, xi = sym.components(t, 1.5)
        assert isinstance(tau, float) and isinstance(xi, float)
        fam.g.eval(t, 2)  # evaluate, not a kernel
    assert kernels["builds"] == built + 1  # tau and xi together
    assert kernels["calls"] == called + 3


def test_a_system_compiles_its_right_hand_side_when_first_read(kernels):
    phi = time_function("1+0.5*sin(3*t)")
    system = oscillator_system(phi)
    assert kernels["builds"] == 0
    basis_with_ics(phi, (0.0, 2.0), (1.0, 0.0), (0.0, 1.0))
    assert kernels["builds"] == 1  # the (u, u', v, v') pair; its u and v views compile nothing
    integrate(system, (1.0, 0.0), (0.0, 1.0))
    assert kernels["builds"] == 2
    rhs = system.rhs
    assert system.rhs is rhs and kernels["builds"] == 2
    # instrumentation substitutes its own right-hand side, which is never compiled over
    counted = dataclasses.replace(system, rhs=lambda t, y: rhs(t, y))
    assert counted.rhs(0.5, (1.0, 0.0)) == rhs(0.5, (1.0, 0.0))
    assert kernels["builds"] == 2


def test_import_compiles_no_kernel():
    code = (
        "import builtins; seen = []; original = builtins.compile\n"
        "def spy(source, filename, *a, **k):\n"
        "    seen.append(filename)\n"
        "    return original(source, filename, *a, **k)\n"
        "builtins.compile = spy\n"
        "import epwb, epwb.cli\n"
        "assert '<scalar kernel>' not in seen, seen\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(epwb.__file__)))
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True)


@pytest.fixture
def compiled(monkeypatch):
    """The source text of every kernel compiled from here on."""
    sources = []
    original = builtins.compile
    monkeypatch.setattr(
        builtins, "compile", lambda src, *a, **k: sources.append(src) or original(src, *a, **k)
    )
    expressions._compiled.cache_clear()
    return sources


def test_dag_compiles_to_one_operation_per_node(compiled):
    # 40 levels, each node using its child twice: a walk would visit 2^40 nodes
    e = sin(var("t"))
    for _ in range(40):
        e = Binary("-", Binary("*", Const(2.0), e), e)  # 2a - a == a exactly
    kernel = scalar_kernel(e, ("t",))
    assert kernel(0.3) == math.sin(0.3)
    (source,) = compiled
    operations = [ln for ln in source.splitlines() if ln.lstrip().startswith("v")]
    # sin, then one '*' and one '-' per level
    assert len(operations) == 1 + 80


def test_equal_operations_share_a_local_and_shapes_share_code(compiled):
    # distinct but equal subtrees: sin(2*t) is computed once
    kernel = scalar_kernel(parse_expression("sin(2*t) + t*sin(2*t)"), ("t",))
    assert kernel(0.4) == math.sin(0.8) + 0.4 * math.sin(0.8)
    (source,) = compiled
    assert source.count("sin(") == 1
    # another tree of the same shape runs the same code with its own constants
    first = scalar_kernel(parse_expression("1+0.5*sin(3*t)"), ("t",))
    second = scalar_kernel(parse_expression("2+0.25*sin(5*t)"), ("t",))
    assert len(compiled) == 2
    assert first(0.7) == 1 + 0.5 * math.sin(3 * 0.7)
    assert second(0.7) == 2 + 0.25 * math.sin(5 * 0.7)


def test_a_kernel_keeps_the_order_of_its_walk(compiled):
    # one tree of each thing a walk meets: a shared subtree, a curve leaf and
    # its t, a domain tree, an unbound name and a state; locals and namespace
    # names are numbered in the order the walk meets them, so trees of one
    # shape share compiled code only while that order holds
    t, x, v = var("t"), var("x"), var("v")
    shared = exp(t * x)
    trees = (shared / v + CurveVal(_Line(), 1, "c") * var("w"), shared - 2.0)
    scalar_kernel(trees, ("t", ("x", "v")), positive=(x * shared,))
    (source,) = compiled
    assert source == (
        "def kernel(a0, a1):\n"
        "    (a1_0, a1_1, ) = a1\n"
        "    try:\n"
        "        v0 = a0 * a1_0\n"
        "        v1 = exp(v0)\n"
        "        v2 = a1_0 * v1\n"
        "        if not (v2 > 0.0): fail(POSITIVE, k27, v2)\n"
        "        v3 = v1 / a1_1\n"
        "        v4 = float(k28.jet([a0], k29)[k29, 0])\n"
        "        v5 = fail(UNBOUND, k30)\n"
        "        v6 = v4 * v5\n"
        "        v7 = v3 + v6\n"
        "        v8 = v1 - k31\n"
        "        if isfinite(v0 + v2 + v7 + v8): return (v7, v8, )\n"
        "    except SIGNALLED:\n"
        "        pass\n"
        "    return fallback(a0, a1)\n"
    )


def test_a_kernel_of_many_watched_operands_compiles():
    # 4,096 quotients in a tree of 13 levels: CPython compiles a sum by
    # recursing once per term, so one sum of every divisor would exhaust it
    t = var("t")
    terms = [Const(1.0) / (t + Const(float(k))) for k in range(1, 4097)]
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])]
    kernel = scalar_kernel(terms[0])
    assert kernel(0.5) == pytest.approx(float(evaluate(terms[0], {"t": 0.5})), rel=1e-14)
    with pytest.raises(DomainError, match="^division by zero$"):
        kernel(-3.0)


@pytest.mark.parametrize("foreign", [1.5, "t", None, object()])
def test_a_foreign_root_is_one_type_error(foreign):
    walks = (
        differentiate,
        canonical,
        lambda root: evaluate([root], {"t": 1.0}),
        lambda root: scalar_kernel([root]),
    )
    for walk in walks:
        with pytest.raises(TypeError) as exc:
            walk(foreign)
        assert str(exc.value) == f"not an expression node: {foreign!r}"


def test_a_non_finite_constant_prints_and_shows():
    # a tree built in code may hold one, though evaluate refuses it
    assert canonical(Const(math.inf) * var("t")) == "((inf)*(t))"
    assert repr(Const(math.nan)) == "<Const (nan)>"


def test_kernel_returns_a_tuple_for_several_trees():
    t, x = var("t"), var("x")
    shared = sin(t) * x
    kernel = scalar_kernel((shared + 1.0, shared, x), ("t", "x"))
    assert kernel(0.5, 2.0) == (math.sin(0.5) * 2.0 + 1.0, math.sin(0.5) * 2.0, 2.0)
    assert scalar_kernel((), ("t",))(1.0) == ()


_unops = st.sampled_from(["sin", "cos", "exp", "sqrt", "log", "neg"])


@st.composite
def _dag(draw):
    """A tree from ``_expr`` with further nodes on top that reuse earlier ones."""
    nodes = [draw(_expr)]
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        a = draw(st.sampled_from(nodes))
        if draw(st.booleans()):
            op = draw(st.sampled_from(["+", "-", "*", "/"]))
            node = Binary(op, a, draw(st.sampled_from(nodes)))
        else:
            node = Unary(draw(_unops), a)
        nodes.append(node)
    return nodes[-1]


@settings(max_examples=200, deadline=None)
@given(e=_dag(), t=st.floats(min_value=-2.0, max_value=3.0))
def test_kernel_agrees_with_one_point_grid_evaluation(e, t):
    kernel = scalar_kernel(e, ("t",))
    try:
        expected = evaluate(e, {"t": np.array([t])})[0]
    except DomainError:
        with pytest.raises(DomainError):
            kernel(t)
        return
    np.testing.assert_allclose(kernel(t), expected, rtol=1e-12, atol=0.0)


# trees whose nodes can overflow and whose later nodes can hide it again:
# exp(-inf), x/inf, 0.5^inf and inf^-1 are finite
_wild_leaf = st.one_of(
    st.just(var("t")), st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 1.5, 400.0, 1e200]).map(const)
)


def _wild_combine(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children).map(
            lambda p: Binary(*p)
        ),
        st.tuples(_unops, children).map(lambda p: Unary(*p)),
    )


_wild = st.recursive(_wild_leaf, _wild_combine, max_leaves=8)
_WILD_INPUTS = st.floats(min_value=-3.0, max_value=3.0) | st.sampled_from(
    (*_SPECIAL, 400.0, -400.0, 1e200, -1e200, math.inf, -math.inf, math.nan)
)


@settings(max_examples=400, deadline=None)
@given(e=_wild, domain=st.none() | _wild, t=_WILD_INPUTS)
@example(e=parse_expression("t^0.5"), domain=None, t=0.0)  # 0^0.5 is 0 and raises nothing
def test_a_kernel_returns_or_raises_what_one_point_evaluate_does(e, domain, t):
    positive = () if domain is None else (domain,)
    got = _outcome(lambda: scalar_kernel((e, -e), ("t",), positive)(t))
    expected = _outcome(lambda: [v.item() for v in evaluate((e, -e), {"t": np.array([t])}, positive)])
    if isinstance(got, str):
        assert got == expected
    elif isinstance(expected, str):
        # a kernel checks no input, so a non-finite one may pass through it
        assert not math.isfinite(t), expected
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "expr, t, domain",
    [
        ("1/(exp(t)*exp(t))", 400.0, None),
        ("exp(-(t*t))", 1e200, None),
        ("0.5^(t*t)", 1e200, None),
        ("(t*t)^(0-1)", 1e200, None),
        ("t", 1e200, "t*t"),  # a domain tree that overflows, its value used by no result
    ],
)
def test_an_overflow_that_a_later_node_hides_still_raises(expr, t, domain):
    e = parse_expression(expr)
    positive = () if domain is None else (parse_expression(domain),)
    with pytest.raises(DomainError) as exc:
        scalar_kernel(e, ("t",), positive)(t)
    with pytest.raises(DomainError) as grid:
        evaluate(e, {"t": np.array([t])}, positive)
    (text, numbers), (grid_text, grid_numbers) = map(_rule_and_operands, (str(exc.value), str(grid.value)))
    assert text == grid_text == "overflow in '*' of # and #"
    np.testing.assert_allclose(numbers, grid_numbers, rtol=1e-12, atol=0.0)


def test_a_non_finite_input_passes_through_unchecked():
    # a kernel checks no input: one that reaches a result untouched, or
    # through an operation whose operand is not watched, is returned as it
    # is; once the kernel's body raises or its sum is not finite, evaluate
    # on the one point names the input
    t, x = var("t"), var("x")
    kernel = scalar_kernel((x, 1.0 / x), ("t", "x"))
    assert kernel(0.0, math.inf) == (math.inf, 0.0)
    kernel = scalar_kernel((x, t * x), ("t", "x"))
    with pytest.raises(DomainError, match="^non-finite value inf in variable 'x'$"):
        kernel(2.0, math.inf)


def test_a_non_finite_input_that_reaches_a_watched_value_is_named():
    # -t is computed, so its NaN fails the kernel's one isfinite
    t = var("t")
    with pytest.raises(DomainError, match="^non-finite value nan in variable 't'$"):
        scalar_kernel((t, -t))(math.nan)


def test_a_body_that_raises_where_no_rule_fails_returns_evaluate_values():
    # math.exp made to raise everywhere: evaluate finds no rule failing, so
    # its values stand in for the body's, as a float or a tuple of floats
    def overflowing(x):
        raise OverflowError("math range error")

    with mock.patch.dict(expressions._KERNEL_GLOBALS, exp=overflowing):
        single = scalar_kernel(parse_expression("exp(t) + t"))
        several = scalar_kernel((parse_expression("exp(t)*2"), parse_expression("t/4")))
    value = single(1.0)
    assert type(value) is float and value == float(np.exp(1.0) + 1.0)
    values = several(1.0)
    assert values == (float(np.exp(1.0) * 2.0), 0.25)
    assert [type(v) for v in values] == [float, float]


def test_evaluate_and_a_kernel_leave_no_garbage_to_collect():
    e = parse_expression("exp(sin(3*t))*log(2+t^2)")
    gc.collect()
    gc.disable()
    try:
        evaluate(e, {"t": np.linspace(0.0, 1.0, 5)})
        assert gc.collect() == 0  # no reference cycle kept the walk's memo
        scalar_kernel(e)(0.5)
        assert gc.collect() == 0  # nor the build's closures, nor the kernel itself
    finally:
        gc.enable()


class _Line:
    """A curve c(t) = 2t with the ``jet`` protocol."""

    def jet(self, ts, k):
        ts = np.asarray(ts, dtype=float)
        return np.array([2.0 * ts, np.full_like(ts, 2.0)])[: k + 1]


def _on_one_point(e, env):
    return evaluate(e, {name: np.array([value]) for name, value in env.items()})


def _kernel_at(e, env):
    """``e`` at the point ``env`` through a scalar kernel of its variables."""
    return scalar_kernel(e, tuple(env))(*env.values())


@pytest.mark.parametrize(
    "expr, env, message",
    [
        ("sin(t)", {"t": math.inf}, "non-finite value inf in variable 't'"),
        ("cos(t)", {"t": math.nan}, "non-finite value nan in variable 't'"),
        ("exp(t)", {"t": 1e6}, "exp overflow at argument 1000000.0"),
        ("log(t)", {"t": -1.5}, "log of non-positive value -1.5"),
        ("sqrt(t)", {"t": -1.0}, "sqrt of negative value -1.0"),
        ("1/t", {"t": 0.0}, "division by zero"),
        ("t^0.5", {"t": -2.0}, "fractional power of non-positive base -2.0"),
        ("t^(0-1)", {"t": 0.0}, "zero raised to a negative power"),
        ("t^400", {"t": 10.0}, "overflow in '^' of 10.0 and 400.0"),
        ("t+t", {"t": 1e308}, "overflow in '+' of 1e+308 and 1e+308"),
        ("t-x", {"t": 1e308, "x": -1e308}, "overflow in '-' of 1e+308 and -1e+308"),
        ("t*t", {"t": 1e200}, "overflow in '*' of 1e+200 and 1e+200"),
        ("t/0.5", {"t": 1e308}, "overflow in '/' of 1e+308 and 0.5"),
        ("t^2", {"t": math.inf}, "non-finite value inf in variable 't'"),
        ("t*x", {"t": 1.0}, "no value bound for variable 'x'"),
        # the first failing node in post-order decides
        ("log(t-1)+sqrt(t-3)", {"t": 0.0}, "log of non-positive value -1.0"),
        ("sqrt(t-3)+log(t-1)", {"t": 0.0}, "sqrt of negative value -3.0"),
    ],
)
def test_domain_error_messages(expr, env, message):
    e = parse_expression(expr, ("t", "x"))
    with pytest.raises(DomainError) as exc:
        _kernel_at(e, env)
    assert str(exc.value) == message
    # a grid raises the same on one point; both name a non-finite input
    with pytest.raises(DomainError) as exc:
        _on_one_point(e, env)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "expr, env, message",
    [
        ("t+1", {"t": math.nan}, "non-finite value nan in variable 't'"),
        ("exp(t)*0", {"t": math.nan}, "non-finite value nan in variable 't'"),
        ("x*sin(t)", {"t": 1.0, "x": -math.inf}, "non-finite value -inf in variable 'x'"),
        # a rule that fails before the input is reached still decides
        ("log(t-1)+x", {"t": 0.0, "x": math.nan}, "log of non-positive value -1.0"),
    ],
)
def test_kernel_names_a_non_finite_input(expr, env, message):
    e = parse_expression(expr, ("t", "x"))
    for run in (functools.partial(_kernel_at, e), functools.partial(_on_one_point, e)):
        with pytest.raises(DomainError) as exc:
            run(env)
        assert str(exc.value) == message


def test_kernel_names_a_non_finite_state_or_constant():
    rhs = ep_system(EPConfig(time_function("1"), time_function("2"))).rhs
    with pytest.raises(DomainError, match="^non-finite value nan in variable 'x'$"):
        rhs(0.0, (math.nan, 0.0))
    with pytest.raises(DomainError, match="^non-finite value inf in constant$"):
        scalar_kernel(Unary("sin", Const(math.inf)) + var("t"))(1.0)


def test_curve_leaf_without_time_is_a_domain_error():
    leaf = CurveVal(_Line(), 1, "c")
    assert evaluate(leaf, {"t": 3.0}) == 2.0
    with pytest.raises(DomainError, match="no value bound for variable 't'"):
        evaluate(leaf, {})
    with pytest.raises(DomainError, match="no value bound for variable 't'"):
        scalar_kernel(leaf * var("x"), ("x",))(1.0)


class _Log:
    """A curve c(t) = log(t) whose jet lets NumPy make -inf and NaN."""

    def jet(self, ts, k):
        return np.log(np.asarray(ts, dtype=float))[None]


class _Gap:
    """A curve c(t) = t that is NaN for t < 0, without a NumPy warning."""

    def jet(self, ts, k):
        ts = np.asarray(ts, dtype=float)
        return np.where(ts < 0.0, np.nan, ts)[None]


def test_a_kernel_names_a_non_finite_curve_value():
    # once a curve's NaN reaches a watched value, evaluate on the one point
    # names the curve, as it names an input
    leaf = CurveVal(_Gap(), 0, "c")
    for tree in (leaf + 1.0, exp(leaf)):
        kernel = scalar_kernel(tree)
        with pytest.raises(DomainError, match="^non-finite value nan in curve 'c'$"):
            kernel(-1.0)
        assert kernel(2.0) == evaluate(tree, {"t": 2.0})


def test_curve_jet_runs_without_flags():
    # NumPy's flags are for evaluate's own operations; a curve's values are checked as inputs
    leaf = CurveVal(_Log(), 0, "c")
    with pytest.raises(DomainError, match="^non-finite value -inf in curve 'c'$"):
        evaluate(leaf, {"t": np.array([1.0, 0.0, -1.0])})
    with pytest.raises(DomainError, match="^non-finite value nan in curve 'c'$"):
        evaluate(leaf, {"t": np.array([-1.0, 0.0])})


def test_kernel_source_never_holds_expression_text(compiled):
    hostile = "t); import os; ("
    name_leaf = Var(hostile)
    curve_leaf = CurveVal(_Line(), 0, "c') or __import__('os') or ('")
    tree = name_leaf * curve_leaf + Const(0.5)
    assert scalar_kernel(tree, (hostile, "t"))(3.0, 2.0) == 12.5
    assert evaluate(tree, {hostile: 3.0, "t": 2.0}) == 12.5
    with pytest.raises(DomainError) as exc:
        scalar_kernel(tree, ("t",))(2.0)
    assert str(exc.value) == f"no value bound for variable {hostile!r}"
    assert len(compiled) == 2  # evaluate compiles nothing
    for source in compiled:
        assert "import" not in source and "'" not in source


def test_a_dropped_derivative_leaves_the_table_without_a_collection():
    gc.collect()
    gc.disable()
    try:
        before = len(expressions._NODES)
        e = parse_expression("exp(sin(3*t))*log(2+t^2)")
        d = differentiate(e)
        assert len(expressions._NODES) > before
        del e, d
        assert len(expressions._NODES) == before  # no reference cycle kept the memo
    finally:
        gc.enable()


# --- interning ----------------------------------------------------------------


class TestInterning:
    def test_equal_trees_are_one_node(self):
        e = parse_expression("sin(2*t)+t^2")
        assert parse_expression("sin(2*t) + t**2") is e
        t = var("t")
        assert sin(2 * t) + t**2 is e
        assert Binary("+", Unary("sin", Binary("*", Const(2.0), t)), Binary("^", t, Const(2))) is e

    def test_leaf_data_is_kept_apart(self):
        assert Const(0.0) is not Const(-0.0)
        assert math.copysign(1.0, Const(-0.0).value) == -1.0
        first, second = _Line(), _Line()
        assert CurveVal(first, 1, "c") is CurveVal(first, 1, "c")
        assert CurveVal(first, 1, "c") is not CurveVal(second, 1, "c")
        assert CurveVal(first, 1, "c") is not CurveVal(first, 0, "c")

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_the_interned_node(self, clone):
        e = parse_expression("exp(-t)/(1+t^2) - 0.5*t")
        assert clone(e) is e
        assert clone(Const(-0.0)) is Const(-0.0)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_deep_copy_is_the_interned_node(self, clone):
        # ten times the recursion limit: the tree goes over as a flat post-order
        e = var("t")
        for _ in range(10_000):
            e = Unary("sin", e)
        assert clone(e) is e

    def test_a_curve_leaf_copies_its_curve(self):
        curve = _Line()
        e = CurveVal(curve, 1, "c") * CurveVal(curve, 0, "c") + var("t")
        assert copy.copy(e) is e
        twin = copy.deepcopy(e)
        first, second = twin.left.left, twin.left.right
        assert twin is not e and isinstance(first.curve, _Line)
        assert first.curve is not curve and first.curve is second.curve  # one copy, shared
        assert (first.order, second.order, first.label) == (1, 0, "c")

    def test_nodes_are_immutable(self):
        e = parse_expression("t+1")
        with pytest.raises(AttributeError):
            e.op = "-"
        assert e.op == "+"

    def test_the_table_holds_no_node_alive(self):
        gc.collect()
        baseline = len(expressions._NODES)
        e = sin(var("t"))
        for _ in range(40):
            e = Binary("-", Binary("*", Const(2.0), e), e)
        d = differentiate(e)
        assert len(expressions._NODES) > baseline + 80
        del e, d
        gc.collect()
        assert len(expressions._NODES) == baseline

    def test_every_entry_shares_one_callback(self):
        e = parse_expression("exp(-t)/(1+t^2) - 0.5*t")
        d = differentiate(e)
        leaf = Var("x") * CurveVal(_Line(), 2, "c")  # Var and CurveVal take the generic path
        entries = list(expressions._NODES.values())
        assert {leaf, leaf.left, leaf.right} <= {entry() for entry in entries}
        assert all(entry.__callback__ is expressions._dropped for entry in entries)
        assert all(expressions._NODES[entry.key] is entry for entry in entries)
        del e, d, leaf

    def test_a_dropped_tree_leaves_no_cycle(self):
        gc.collect()
        gc.disable()
        try:
            e = sin(var("t"))
            for _ in range(40):
                e = Binary("-", Binary("*", Const(2.0), e), e)
            d = differentiate(e)
            del e, d
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_dead_nodes_callback_leaves_a_newer_node_alone(self):
        old = Binary("+", Var("stale"), Const(0.125))
        key = (Binary, "+", old.left, old.right)
        stale = expressions._NODES[key]
        callback = stale.__callback__
        del old
        gc.collect()
        assert stale() is None and key not in expressions._NODES
        new = Binary("+", Var("stale"), Const(0.125))
        callback(stale)  # as if the dead node's callback ran after the new node took the key
        assert expressions._NODES[key]() is new
        assert Binary("+", Var("stale"), Const(0.125)) is new


def test_a_check_leaves_the_table_as_it_found_it():
    # every check builds its trees cold: once its results go, so do its nodes
    gc.collect()
    before = len(expressions._NODES)
    fam = compatible_family(time_function("exp(4.1*t)"), 1.1, 0.7, (0.0, 2.0))
    sym, equation = surviving_symmetry(fam), ep_ode(fam)
    reading = symmetry_residual(sym, equation, default_samples((0.0, 2.0), n=4))
    assert reading < 1e-6
    assert len(expressions._NODES) > before
    del fam, sym, equation
    gc.collect()
    assert len(expressions._NODES) == before


# The constant rules stated by value, where 0.0 == -0.0: the reference that
# the constructors, which test for the module's constants by identity, must match.
def _by_value(e, value):
    return isinstance(e, Const) and e.value == value


def _reference_add(a, b):
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value + b.value):
        return Const(a.value + b.value)
    if _by_value(a, 0.0):
        return b
    if _by_value(b, 0.0):
        return a
    return Binary("+", a, b)


def _reference_sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value - b.value):
        return Const(a.value - b.value)
    if _by_value(b, 0.0):
        return a
    if _by_value(a, 0.0):
        return _reference_neg(b)
    return Binary("-", a, b)


def _reference_mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value * b.value):
        return Const(a.value * b.value)
    if _by_value(a, 0.0) or _by_value(b, 0.0):
        return Const(0.0)
    if _by_value(a, 1.0):
        return b
    if _by_value(b, 1.0):
        return a
    return Binary("*", a, b)


def _reference_div(a, b):
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        if math.isfinite(a.value / b.value):
            return Const(a.value / b.value)
    if _by_value(b, 1.0):
        return a
    if _by_value(a, 0.0):
        return Const(0.0)
    return Binary("/", a, b)


def _reference_power(a, b):
    if _by_value(b, 1.0):
        return a
    if _by_value(b, 0.0):
        return Const(1.0)
    if isinstance(a, Const) and isinstance(b, Const):
        return expressions._folded(Binary("^", a, b))
    return Binary("^", a, b)


def _reference_neg(e):
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Unary) and e.op == "neg":
        return e.arg
    return Unary("neg", e)


def _rule_operands():
    # 1e308 * 1e308 overflows, so that product must not fold
    constants = [Const(v) for v in (0.0, -0.0, 1.0, -1.0, 2.5, 1e308)]
    return [*constants, Var("t"), sin(Var("t"))]


@pytest.mark.parametrize(
    "constructor, reference",
    [
        (expressions.add, _reference_add),
        (expressions.sub, _reference_sub),
        (expressions.mul, _reference_mul),
        (expressions.div, _reference_div),
        (expressions.power, _reference_power),
    ],
    ids=["add", "sub", "mul", "div", "power"],
)
def test_constant_rules_hold_for_both_zeros(constructor, reference):
    for a, b in itertools.product(_rule_operands(), repeat=2):
        assert constructor(a, b) is reference(a, b), (a, b)


def test_neg_rules_hold_for_both_zeros():
    for e in _rule_operands():
        assert expressions.neg(e) is _reference_neg(e), e


def test_integer_constant_agrees_on_both_paths():
    square = Binary("^", Var("t"), Const(2))
    assert type(square.right.value) is float
    assert scalar_kernel(square)(3.0) == 9.0
    assert evaluate(square, {"t": 3.0}) == 9.0


def test_every_pass_differentiates_from_cold(diffs):
    # the derivatives of exp(u) and a^b contain their own node, so a
    # derivative cached on a node would outlive the check and warm the next
    def check():
        fam = compatible_family(time_function("exp(4.1*t)"), 1.1, 0.7, (0.0, 2.0))
        samples = default_samples((0.0, 2.0), n=4)
        return symmetry_residual(surviving_symmetry(fam), ep_ode(fam), samples)

    first = check()
    cold = len(diffs)
    assert cold > 0
    assert check() == first
    assert len(diffs) == 2 * cold


def test_time_function_differentiates_on_demand(diffs):
    f = TimeFunction(parse_expression("exp(2*t)*sin(t)"))
    f.eval(0.3)
    f.jet(np.linspace(0.0, 1.0, 3), 0)
    assert diffs == []
    f.derivative_expr(2)
    built = len(diffs)
    assert built > 0
    f.eval(0.3, 1)
    f.jet(np.linspace(0.0, 1.0, 3), 2)
    assert len(diffs) == built


@pytest.mark.parametrize("g_text, interval", [("exp(4.1*t)", (0.0, 2.0)), ("(1.1+t)^4", (0.0, 3.0))])
def test_a_compatible_family_differentiates_each_node_by_t_once(diffs, g_text, interval):
    # a, phi, the surviving symmetry's partials and the equation share G's t-memo
    fam = compatible_family(time_function(g_text), 1.1, 0.7, interval)
    fam.phi.derivative_expr(2)
    symmetry_condition(surviving_symmetry(fam), ep_ode(fam))
    by_t = [node for node, variable in diffs if variable == "t"]
    assert by_t and len(set(by_t)) == len(by_t)


class _Exp:
    """A curve c(t) = exp(t), every derivative of any order, with the ``jet`` protocol."""

    def jet(self, ts, k):
        return np.tile(np.exp(np.asarray(ts, dtype=float)), (k + 1, 1))


_EXP_LEAF = CurveVal(_Exp(), 0, "c")
_txv_leaf = st.one_of(
    st.sampled_from(["t", "x", "v"]).map(var),
    st.integers(min_value=-3, max_value=3).map(lambda k: const(float(k))),
    st.just(_EXP_LEAF),
)
_txv_text = st.recursive(
    st.sampled_from(["t", "x", "v", "2", "0.5", "3"]),
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(lambda p: f"({p[0]}){p[1]}({p[2]})"),
        st.tuples(st.sampled_from((*expressions.FUNCTIONS, "-")), children).map(lambda p: f"{p[0]}({p[1]})"),
    ),
    max_leaves=12,
)
# trees over (t, x, v) as built in code, with curve leaves, and as parsed
_txv = st.recursive(_txv_leaf, _combine, max_leaves=12) | _txv_text.map(
    lambda text: parse_expression(text, ("t", "x", "v"))
)


def _subtrees(e):
    yield e
    for child in (e.arg,) if isinstance(e, Unary) else (e.left, e.right) if isinstance(e, Binary) else ():
        yield from _subtrees(child)


def _leaf_names(e) -> set:
    """The names of the ``Var`` leaves under ``e``, and "t" if a curve leaf is there."""
    return {n.name if isinstance(n, Var) else "t" for n in _subtrees(e) if isinstance(n, (Var, CurveVal))}


@settings(max_examples=200, deadline=None)
@given(e=_expr | _txv)
def test_every_node_carries_the_names_it_depends_on(e):
    for node in _subtrees(e):
        assert type(node.vars) is frozenset and node.vars == _leaf_names(node)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(e=_txv)
def test_a_tree_free_of_the_variable_is_zero_without_a_walk(diffs, e):
    for name in {"t", "x", "v"} - e.vars:
        diffs.clear()
        assert differentiate(e, name) is expressions._ZERO
        assert diffs == []


def _reference_differentiate(e, variable):
    """The walk without free-variable sets: every distinct node under ``e`` is differentiated."""
    memo = {}

    def d(node):
        derivative = memo.get(node)
        if derivative is None:
            derivative = memo[node] = node._diff(variable, d)
        return derivative

    try:
        return d(e)
    finally:
        del d


@settings(max_examples=200, deadline=None)
@given(
    e=_txv,
    points=st.lists(st.tuples(*3 * [st.floats(min_value=-2.0, max_value=3.0)]), min_size=1, max_size=4),
)
def test_derivatives_equal_the_reference_walk(e, points):
    # values compare with ==: a zero the walk skips may differ from the reference's in sign only
    env = dict(zip("txv", np.array(points).T))
    for name in ("t", "x", "v"):
        got = _outcome(lambda: evaluate(differentiate(e, name), env))
        expected = _outcome(lambda: evaluate(_reference_differentiate(e, name), env))
        assert _same_outcome(got, expected), (canonical(e), name, got, expected)


# --- IEEE flags against the rules --------------------------------------------

def _placements(value):
    """``value`` as a 0-d array, then first, in the middle and last of arrays of 1.0.

    The lengths reach past NumPy's SIMD widths, so vector loops and their
    remainders both meet the value.
    """
    yield np.array(value)
    for n in (7, 16, 64, 216, 1001):
        for i in (0, n // 2, n - 1):
            a = np.ones(n)
            a[i] = value
            yield a


def _operand_pairs(a, b):
    """(a, b) both 0-d or at one place of equal arrays, and each 0-d against the other in an array."""
    yield from zip(_placements(a), _placements(b))
    for y in itertools.islice(_placements(b), 1, None, 4):
        yield np.array(a), y
    for x in itertools.islice(_placements(a), 1, None, 4):
        yield x, np.array(b)


def _outcome(run):
    """What ``run()`` returns, or the message of the DomainError it raises."""
    try:
        return run()
    except DomainError as exc:
        return str(exc)


def _same_outcome(got, expected):
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    return np.shape(got) == np.shape(expected) and np.array_equal(got, expected)


@pytest.mark.parametrize("op", [op for op in expressions._RULES if op not in ("positive", "finite")])
def test_flags_raise_exactly_where_the_rules_fail(op):
    # evaluate leaves most rules to NumPy's IEEE flags; each must raise the
    # message that all of the rule's masks raise, at the same point
    if op in expressions.FUNCTIONS or op == "neg":
        tree, cases = Unary(op, var("a")), ((x,) for v in _SPECIAL for x in _placements(v))
    else:
        tree = Binary(op, var("a"), var("b"))
        cases = (xy for v in _SPECIAL for w in _SPECIAL for xy in _operand_pairs(v, w))
    for operands in cases:
        with np.errstate(all="ignore"):
            expected = _outcome(lambda: expressions._CHECKED[op](*operands))
        got = _outcome(lambda: evaluate(tree, dict(zip("ab", operands))))
        assert _same_outcome(got, expected), (op, operands, got, expected)


@pytest.mark.parametrize("value", [*_SPECIAL, math.inf, -math.inf, math.nan])
def test_input_and_positive_checks_are_the_rules(value):
    for x in _placements(value):

        def masks():
            expressions._CHECKED["finite"](x, "variable 'a'")
            expressions._CHECKED["positive"](x, "a")
            return []

        with np.errstate(all="ignore"):
            expected = _outcome(masks)
        assert _outcome(lambda: evaluate([], {"a": x}, positive=(var("a"),))) == expected


# --- the first bad point of a grid --------------------------------------------

class _Track:
    """A polar trajectory stand-in whose radius is t/2 - 1 on the grid [4, 2, 1], r' = r'' = 0."""

    states = [(1.0, 0.0, 0.0, 1.0)]

    def grid(self, n):
        return np.array([4.0, 2.0, 1.0])

    def sample(self, ts):
        return np.stack([0.5 * ts - 1.0, 0.0 * ts, 0.0 * ts, 0.0 * ts + 1.0], axis=1)

    def jet(self, ts, k):
        return self.sample(ts).T[: k + 1]


def _chart_time(g_text, interval, ts):
    chart = CanonicalChart(compatible_family(time_function(g_text), 1.0, 1.0, interval))
    return chart.time(np.array(ts))


def _lorentz_series():
    # the series' 200-point grid on [0, 199/64] steps by 1/64, so t = 1 is its point 64
    scenario = {"invariant": "lorentz", "phi": "1-t", "initial": [1.0, 0.0]}
    return cli._invariant_series(scenario, (0.0, 199 / 64), IntegrationSettings())


_ONE = time_function("1")


def _orbit(big_x, big_v=(1.0, 1.0, 1.0, 1.0)):
    """A transformed orbit at T = 0, 1, 2, 3 with positions ``big_x`` and velocities ``big_v``."""
    ts = np.arange(4.0)
    return TransformedOrbit(t=ts, T=ts, X=np.array(big_x), V=np.array(big_v), A=np.ones(4))


@pytest.mark.parametrize(
    "run, message",
    [
        (
            lambda: SqrtCurve(time_function("t-1")).jet([2.0, 0.5, 0.0], 0),
            "sqrt of non-positive curve value -0.5 at t=0.5",
        ),
        (
            lambda: ep_residual(EPConfig(_ONE, _ONE), time_function("t-1"), [2.0, 1.0, 0.5]),
            "x=0.0 below guard threshold 1e-06 at t=1.0",
        ),
        (
            lambda: ermakov_invariant(time_function("t"), _ONE, 1.0, np.array([1.0, 0.0, 1e-200])),
            "x(t)=0 at t=0.0",
        ),
        (
            lambda: ermakov_invariant(time_function("t"), _ONE, 1.0, np.array([1.0, 1e-200, 0.0])),
            "Ermakov invariant is not finite at t=1e-200",
        ),
        (
            lambda: first_integral(ThirdOrderConfig(_ONE), time_function("t"), np.array([1.0, 1e200, 2e200])),
            "first integral is not finite at t=1e+200",
        ),
        (
            lambda: rho_substitution(ThirdOrderConfig(_ONE), time_function("t"), [1.0, 1e-14, 1e-16]),
            "x=1e-07 below guard threshold 1e-06 at t=1e-14",
        ),
        (
            lambda: _chart_time("t", (1.0, 2.0), [1.0, 0.0, -1.0]),
            "G(0.0) = 0.0 is not positive",
        ),
        (
            lambda: _chart_time("5-(t-1)^2", (0.0, 0.5), [0.0, 2.0, 3.0]),
            "G'(2.0) = -2.0 is not positive",
        ),
        (
            lambda: radial_ep_residual(_Track(), CentralFieldConfig(_ONE, _ONE), quad=_Track()),
            "radius 0.0 too close to the axis at t=2.0",
        ),
        (_lorentz_series, "frequency squared 0.0 not positive at t=1.0"),
        (
            lambda: autonomous_residual(_orbit([1.0, 1e-7, 0.0, 1.0]), 1.0),
            "transformed orbit approaches X = 0: X=1e-07 at T=1.0",
        ),
        (
            # the turning point at T = 1 is skipped before u is checked
            lambda: abel_residual(_orbit([1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 1.0, 1.0]), 1.0),
            "phase variable u approaches 0: u=-1.0 at T=2.0",
        ),
    ],
    ids=[
        "sqrt_curve", "ep_residual", "ermakov_zero", "ermakov_nonfinite", "first_integral",
        "rho_substitution", "chart_g", "chart_g1", "radial_ep_residual", "lorentz",
        "autonomous_residual", "abel_residual",
    ],
)
def test_grid_failures_name_the_first_bad_point(run, message):
    # each grid holds two bad points; the message names the first one's values
    with pytest.raises(DomainError) as exc:
        run()
    assert str(exc.value) == message
