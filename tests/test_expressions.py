import builtins
import math
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from epwb import (
    DomainError,
    ExprSyntaxError,
    TimeFunction,
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
from epwb import expressions, symmetry
from epwb.expressions import Binary, Const, CurveVal, Unary, Var, const, sin, var
from epwb.pinney import EPConfig, ep_system
from epwb.ode import integrate
from epwb.symmetry import basis_family, default_samples


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("op", ["sin", "cos"])
    def test_trig_of_non_finite_is_domain_error(self, op, value):
        # math.sin(inf) raises a plain ValueError, which would escape the
        # integrator's DomainError handling
        e = parse_expression(f"{op}(t)")
        with pytest.raises(DomainError):
            e.eval({"t": value})
        with pytest.raises(DomainError):
            evaluate(e, {"t": np.array([0.0, value])})

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


@settings(max_examples=200, deadline=None)
@given(
    e=_expr,
    t0=st.floats(min_value=-2.0, max_value=2.0),
    width=st.floats(min_value=0.0, max_value=3.0),
)
def test_grid_evaluation_matches_pointwise_eval(e, t0, width):
    ts = np.linspace(t0, t0 + width, 9)
    try:
        points = [e.eval({"t": float(t)}) for t in ts]
    except DomainError:
        with pytest.raises(DomainError):
            evaluate(e, {"t": ts})
        return
    np.testing.assert_allclose(evaluate(e, {"t": ts}), points, rtol=1e-12, atol=0.0)


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
        with pytest.raises(DomainError):
            evaluate(parse_expression(text), {"t": np.array([1.0, bad, 2.0])})

    def test_memo_is_shared_across_trees(self):
        u = sin(var("t"))
        memo = {}
        env = {"t": np.linspace(0.0, 1.0, 3)}
        evaluate(u * u, env, memo)
        before = len(memo)
        evaluate(u + u, env, memo)
        assert len(memo) == before + 1  # only the new root runs


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
    grids = _bounded_calls(monkeypatch, Binary, "_on_grid", 400)
    ts = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_array_equal(evaluate(e, {"t": ts}), np.sin(ts))
    np.testing.assert_array_equal(evaluate(d, {"t": ts}), np.cos(ts))
    assert len(grids) <= 400


@pytest.fixture
def kernels(monkeypatch, request):
    """Count the scalar kernels built, and the calls of any of them, from here on."""
    log = {"builds": 0, "calls": 0}
    original = expressions.scalar_kernel

    def counting(exprs, variables=("t",)):
        kernel = original(exprs, variables)
        log["builds"] += 1

        def call(*args):
            log["calls"] += 1
            return kernel(*args)

        return call

    for module in (expressions, symmetry):
        monkeypatch.setattr(module, "scalar_kernel", counting)
    # constant folding caches its kernels for the process; drop the counted ones
    request.addfinalizer(expressions._fold_kernel.cache_clear)
    return log


def test_grid_callers_never_walk_per_point(kernels):
    fam = compatible_family(time_function("(1+t)^4"), 1.0, 1.0, (0.0, 3.0))
    sym, ode = surviving_symmetry(fam), ep_ode(fam)
    basis_syms = basis_family(fundamental_pair(time_function("1+0.5*sin(t)"), (0.0, 4.0)))
    family = autonomous_family(1.0)
    samples = default_samples((0.0, 3.0))
    points = [(t, x) for t in np.linspace(0.3, 2.7, 7) for x in (0.7, 1.1, 1.9)]
    before = dict(kernels)  # integrating the basis called its right-hand side
    symmetry_residual(sym, ode, samples)
    symmetry_residual(basis_syms[1], ode, samples)
    structure_constants(family, points)
    fam.phi.jet(np.linspace(0.0, 3.0, 50), 3)
    assert kernels == before


def test_scalar_callers_compile_once_and_reuse(kernels):
    fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
    assert kernels["builds"] == 0  # building trees compiles nothing
    traj = integrate(ep_system(EPConfig(phi=fam.phi, g=fam.g)), [1.0, 0.0], (0.0, 0.5))
    assert len(traj.times) > 10
    assert kernels["builds"] == 2  # phi and g, order 0
    assert kernels["calls"] > 20 * len(traj.times)  # two per right-hand side
    sym = surviving_symmetry(fam)
    built, called = kernels["builds"], kernels["calls"]
    for t in (0.1, 0.2, 0.3):
        tau, xi = sym.components(t, 1.5)
        assert isinstance(tau, float) and isinstance(xi, float)
        fam.g.eval(t, 2)
    assert kernels["builds"] == built + 2  # tau and xi together, g''
    assert kernels["calls"] == called + 6


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
    subprocess.run([sys.executable, "-c", code], check=True)


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
    assert len(operations) == 1 + 80  # sin, then one '*' and one '-' per level


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


class _Line:
    """A curve c(t) = 2t with the ``jet`` protocol."""

    def jet(self, ts, k):
        ts = np.asarray(ts, dtype=float)
        return np.array([2.0 * ts, np.full_like(ts, 2.0)])[: k + 1]


@pytest.mark.parametrize(
    "expr, env, message",
    [
        ("sin(t)", {"t": math.inf}, "sin of non-finite value inf"),
        ("cos(t)", {"t": math.nan}, "cos of non-finite value nan"),
        ("exp(t)", {"t": 1e6}, "exp overflow at argument 1000000.0"),
        ("log(t)", {"t": -1.5}, "log of non-positive value -1.5"),
        ("sqrt(t)", {"t": -1.0}, "sqrt of negative value -1.0"),
        ("1/t", {"t": 0.0}, "division by zero"),
        ("t^0.5", {"t": -2.0}, "fractional power of non-positive base -2.0"),
        ("t^(0-1)", {"t": 0.0}, "zero raised to a negative power"),
        ("t^400", {"t": 10.0}, "power 10.0^400.0 undefined: math range error"),
        ("t+t", {"t": 1e308}, "overflow in '+' of 1e+308 and 1e+308"),
        ("t-x", {"t": 1e308, "x": -1e308}, "overflow in '-' of 1e+308 and -1e+308"),
        ("t*t", {"t": 1e200}, "overflow in '*' of 1e+200 and 1e+200"),
        ("t/0.5", {"t": 1e308}, "overflow in '/' of 1e+308 and 0.5"),
        ("t^2", {"t": math.inf}, "overflow in '^' of inf and 2.0"),
        ("t*x", {"t": 1.0}, "no value bound for variable 'x'"),
        # the first failing node in post-order decides
        ("log(t-1)+sqrt(t-3)", {"t": 0.0}, "log of non-positive value -1.0"),
        ("sqrt(t-3)+log(t-1)", {"t": 0.0}, "sqrt of negative value -3.0"),
    ],
)
def test_domain_error_messages(expr, env, message):
    e = parse_expression(expr, ("t", "x"))
    with pytest.raises(DomainError) as exc:
        e.eval(env)
    assert str(exc.value) == message


def test_curve_leaf_without_time_is_a_domain_error():
    leaf = CurveVal(_Line(), 1, "c")
    assert leaf.eval({"t": 3.0}) == 2.0
    with pytest.raises(DomainError, match="no value bound for variable 't'"):
        leaf.eval({})
    with pytest.raises(DomainError, match="no value bound for variable 't'"):
        scalar_kernel(leaf * var("x"), ("x",))(1.0)


def test_kernel_source_never_holds_expression_text(compiled):
    hostile = "t); import os; ("
    name_leaf = Var(hostile)
    curve_leaf = CurveVal(_Line(), 0, "c') or __import__('os') or ('")
    tree = name_leaf * curve_leaf + Const(0.5)
    assert scalar_kernel(tree, (hostile, "t"))(3.0, 2.0) == 12.5
    assert tree.eval({hostile: 3.0, "t": 2.0}) == 12.5
    with pytest.raises(DomainError) as exc:
        scalar_kernel(tree, ("t",))(2.0)
    assert str(exc.value) == f"no value bound for variable {hostile!r}"
    assert len(compiled) == 2  # Expr.eval reuses the code of the first kernel's shape
    for source in compiled:
        assert "import" not in source and "'" not in source
