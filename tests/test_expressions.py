import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from epwb import (
    DomainError,
    ExprSyntaxError,
    TimeFunction,
    UnknownIdentifierError,
    canonical,
    differentiate,
    parse_expression,
    time_function,
)
from epwb.expressions import Binary, Const, Unary, Var, const, var


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
        assert parse_expression("exp(4*t)").eval({"t": 0.0}) == 1.0

    def test_precedence_mul_over_add(self):
        assert parse_expression("1+2*3").eval({"t": 0.0}) == 7.0

    def test_precedence_pow_over_mul(self):
        assert parse_expression("2*t^3").eval({"t": 2.0}) == 16.0

    def test_pow_right_associative(self):
        assert parse_expression("2^3^2").eval({"t": 0.0}) == 512.0

    def test_unary_minus_binds_below_pow(self):
        # -t^2 reads -(t^2)
        assert parse_expression("-t^2").eval({"t": 3.0}) == -9.0

    def test_double_star_alias(self):
        assert parse_expression("t**3").eval({"t": 2.0}) == 8.0

    def test_whitespace_insensitive(self):
        a = parse_expression("1 +  2 * sin( t )").eval({"t": 0.7})
        b = parse_expression("1+2*sin(t)").eval({"t": 0.7})
        assert a == b

    def test_left_associative_sub(self):
        assert parse_expression("10-3-2").eval({"t": 0.0}) == 5.0

    def test_division_chain(self):
        assert parse_expression("8/4/2").eval({"t": 0.0}) == 1.0

    def test_scientific_notation(self):
        assert parse_expression("1.5e2").eval({"t": 0.0}) == 150.0

    def test_multiple_variables(self):
        e = parse_expression("x*v+t", ("t", "x", "v"))
        assert e.eval({"t": 1.0, "x": 2.0, "v": 3.0}) == 7.0


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
            assert d.eval({"t": t}) == pytest.approx(2.0 * math.cos(2.0 * t), abs=1e-14)
        assert d.eval({"t": 0.0}) == 2.0

    def test_constant_derivative_is_zero(self):
        d = differentiate(parse_expression("7"))
        assert d.eval({"t": 123.0}) == 0.0

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
        assert d.eval({"t": t}) == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-12)

    def test_quotient(self):
        d = differentiate(parse_expression("1/t"))
        assert d.eval({"t": 2.0}) == pytest.approx(-0.25, rel=1e-14)

    def test_sqrt_chain(self):
        d = differentiate(parse_expression("sqrt(1+t^2)"))
        t = 0.7
        assert d.eval({"t": t}) == pytest.approx(t / math.sqrt(1 + t * t), rel=1e-12)

    def test_second_derivative_association_independent(self):
        parts = ("sin(2*t)", "t^3", "exp(t)")
        left = parse_expression(f"(({parts[0]}+{parts[1]})+{parts[2]})")
        right = parse_expression(f"({parts[0]}+({parts[1]}+{parts[2]}))")
        d2l = differentiate(differentiate(left))
        d2r = differentiate(differentiate(right))
        for t in np.linspace(0.1, 2.0, 7):
            a, b = d2l.eval({"t": t}), d2r.eval({"t": t})
            assert a == pytest.approx(b, rel=1e-12)

    def test_partial_derivatives_by_variable(self):
        e = parse_expression("x^2*v+t*x", ("t", "x", "v"))
        env = {"t": 2.0, "x": 3.0, "v": 5.0}
        assert differentiate(e, "x").eval(env) == pytest.approx(2 * 3 * 5 + 2, rel=1e-14)
        assert differentiate(e, "v").eval(env) == pytest.approx(9.0, rel=1e-14)
        assert differentiate(e, "t").eval(env) == pytest.approx(3.0, rel=1e-14)


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
            parse_expression("t^0.5").eval({"t": -2.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            parse_expression("t^(0-1)").eval({"t": 0.0})

    def test_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            time_function("exp(t)").eval(1e6)

    def test_no_nan_from_integer_power_of_negative(self):
        assert parse_expression("t^3").eval({"t": -2.0}) == -8.0

    def test_domain_interval_enforced(self):
        f = time_function("t", domain=(0.0, 1.0))
        with pytest.raises(DomainError):
            f.eval(2.0)

    def test_order_zero_equals_direct_eval(self):
        f = time_function("sin(3*t)+t^2")
        for t in (0.0, 0.4, 1.9):
            assert f.eval(t, 0) == f.expr.eval({"t": t})


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

    def test_callable(self):
        assert time_function("2*t")(3.0) == 6.0


class TestCanonicalForm:
    def test_example_form(self):
        e = parse_expression("2*cos(2*t)")
        assert canonical(e) == "((2)*(cos((2)*(t))))"

    def test_round_trip_examples(self):
        for text in ("1+2*t", "sin(t)^2+cos(t)^2", "-t^3/(1+t)", "exp(4*t)-1"):
            e = parse_expression(text)
            back = parse_expression(canonical(e))
            for t in (0.1, 0.9, 2.3):
                assert back.eval({"t": t}) == pytest.approx(e.eval({"t": t}), rel=1e-14)

    def test_structural_equality_implies_equal_eval(self):
        a = parse_expression("sin(2*t)+t^2")
        b = parse_expression("sin(2*t)+t^2")
        assert a == b
        assert a.eval({"t": 0.37}) == b.eval({"t": 0.37})


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


def _try_eval(e, t):
    try:
        v = e.eval({"t": t})
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
    assert back.eval({"t": t}) == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_time_function_rejects_empty_domain():
    with pytest.raises(ValueError):
        TimeFunction(parse_expression("t"), domain=(1.0, 1.0))
