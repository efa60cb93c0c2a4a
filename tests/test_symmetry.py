import itertools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from epwb import (
    DegenerateBasisError,
    DomainError,
    PointSymmetry,
    SecondOrderODE,
    autonomous_family,
    basis_family,
    basis_with_ics,
    compatible_family,
    ep_ode,
    fundamental_pair,
    killing_form,
    lie_bracket,
    point_symmetry,
    relation,
    structure_constants,
    surviving_symmetry,
    symmetry_condition,
    symmetry_residual,
    time_function,
)
from epwb import symmetry
from epwb.expressions import Binary, Const, Expr, TimeFunction, Unary, const, differentiate, evaluate, sin, var
from epwb.ode import worst_residual
from epwb.symmetry import default_samples
from tests.conftest import G_CATALOG, M_VALUES, POWER_LAW_G


def lattice(ts, xs, vs):
    """The t-major (t, x, v) product of three axes: an (N, 3) sample array."""
    return np.array(list(itertools.product(ts, xs, vs)), dtype=float)


def pair_samples(interval, n=7, xs=(0.7, 1.1, 1.9)):
    t0, t1 = interval
    return [(t, x) for t in np.linspace(t0 + 0.05, t1 - 0.05, n) for x in xs]


def component_distance(s1, s2, points, scale=1.0):
    worst = 0.0
    for t, x in points:
        a = np.asarray(s1.components(t, x))
        b = scale * np.asarray(s2.components(t, x))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


@pytest.fixture(scope="module")
def unit_ode():
    return SecondOrderODE.from_ep(time_function("1"), time_function("1"))


@pytest.fixture(scope="module")
def unit_family():
    return autonomous_family(1.0)


class TestSymmetryResidual:
    def test_time_translation_is_exact(self, unit_ode):
        shift = point_symmetry("1", "0", "time-shift")
        assert symmetry_residual(shift, unit_ode, default_samples((0.0, 6.0))) == 0.0

    def test_oscillating_member(self, unit_family, unit_ode):
        res = symmetry_residual(unit_family[1], unit_ode, default_samples((0.0, 6.0)))
        assert res <= 1e-10

    def test_all_three_members(self, unit_family, unit_ode):
        samples = default_samples((0.0, 6.0))
        for s in unit_family:
            assert symmetry_residual(s, unit_ode, samples) <= 1e-10

    def test_broken_by_growing_forcing(self):
        ode = SecondOrderODE.from_ep(time_function("1"), time_function("exp(4*t)"))
        shift = point_symmetry("1", "0")
        assert symmetry_residual(shift, ode, default_samples((0.0, 1.0))) >= 0.1

    def test_constant_forcing_level_is_irrelevant(self, unit_family):
        samples = default_samples((0.0, 6.0))
        for g_text in ("1", "7"):
            ode = SecondOrderODE.from_ep(time_function("1"), time_function(g_text))
            for s in unit_family:
                assert symmetry_residual(s, ode, samples) <= 1e-8


def _children(node):
    return (node.arg,) if isinstance(node, Unary) else (node.left, node.right) if isinstance(node, Binary) else ()


def _nodes(*trees) -> set:
    """Every node of ``trees``."""
    seen, stack = set(), list(trees)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(_children(node))
    return seen


def _reference_trees(sym, ode):
    """w, w_t, w_x, w_v, then f, f_t, f_x, f_tt, f_tx, f_xx of tau and of xi, each differentiated afresh."""
    trees = [ode.w, ode.w_t, ode.w_x, ode.w_v]
    for f in (sym.tau, sym.xi):
        f_t, f_x = differentiate(f, "t"), differentiate(f, "x")
        trees += (f, f_t, f_x, differentiate(f_t, "t"), differentiate(f_t, "x"), differentiate(f_x, "x"))
    return trees


def _reference_residuals(sym, ode, samples):
    """The condition as 16 evaluated trees, prolonged in NumPy: the residual before it was one tree."""
    t, x, v = np.asarray(samples, dtype=float).T.copy()
    (
        w, w_t, w_x, w_v,
        tau, tau_t, tau_x, tau_tt, tau_tx, tau_xx,
        xi, xi_t, xi_x, xi_tt, xi_tx, xi_xx,
    ) = evaluate(_reference_trees(sym, ode), {"t": t, "x": x, "v": v})
    with np.errstate(all="ignore"):
        xi1 = xi_t + v * (xi_x - tau_t) - v * v * tau_x
        xi2 = (
            xi_tt
            + v * (2.0 * xi_tx - tau_tt)
            + v * v * (xi_xx - 2.0 * tau_tx)
            - v**3 * tau_xx
            + w * (xi_x - 2.0 * tau_t - 3.0 * v * tau_x)
        )
        return xi2 - (tau * w_t + xi * w_x + xi1 * w_v)


def _failing_nodes(tree, env) -> set:
    """The nodes of ``tree`` that raise DomainError on ``env`` while their children evaluate."""

    def raises(node):
        try:
            evaluate(node, env)
        except DomainError:
            return True
        return False

    failing = {node for node in _nodes(tree) if raises(node)}
    return {node for node in failing if not _nodes(*_children(node)) & failing}


def _condition_matches_reference(sym, ode, samples):
    """The condition tree gives the reference's values exactly, or raises where it raises."""
    t, x, v = np.asarray(samples, dtype=float).T.copy()
    env = {"t": t, "x": x, "v": v}
    condition = symmetry_condition(sym, ode)
    try:
        reference = _reference_residuals(sym, ode, samples)
    except DomainError:
        try:
            evaluate(condition, env)
        except DomainError:
            return
        # folding removed every term holding a failing node, so the condition stands
        failing = set().union(*(_failing_nodes(f, env) for f in _reference_trees(sym, ode)))
        assert failing and not failing & _nodes(condition)
        return
    if not np.isfinite(reference).all():
        with pytest.raises(DomainError):
            evaluate(condition, env)
        return
    values = evaluate(condition, env)
    assert values.shape == reference.shape and (values == reference).all()
    assert symmetry_residual(sym, ode, samples) == worst_residual(reference)


def _trees(names):
    """Trees over ``names`` that depend on every one of them, with small constants."""
    constants = (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0)
    leaf = st.one_of(st.sampled_from(names).map(var), st.sampled_from(constants).map(const))

    def combine(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(lambda p: Binary(*p)),
            st.tuples(st.sampled_from(("neg", "sin", "cos", "exp", "sqrt", "log")), children).map(lambda p: Unary(*p)),
            st.tuples(children, st.integers(min_value=0, max_value=3)).map(lambda p: Binary("^", p[0], const(p[1]))),
        )

    def joined(p):
        # each variable joined in by an operation, so the tree depends on all of them
        tree, ops = p
        for op, name in zip(ops, names):
            tree = Binary(op, tree, var(name))
        return tree

    ops = st.lists(st.sampled_from("+-*/"), min_size=len(names), max_size=len(names))
    return st.tuples(st.recursive(leaf, combine, max_leaves=8), ops).map(joined)


class TestSymmetryCondition:
    """The condition tree against the 16-tree NumPy prolongation it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        tau=_trees(("t", "x")),
        xi=_trees(("t", "x")),
        w=_trees(("t", "x", "v")),
        x_range=st.sampled_from(((0.6, 2.1), (-1.2, 2.1))),
    )
    def test_equals_the_reference_prolongation(self, tau, xi, w, x_range):
        # no sample is a short binary fraction, so a change in the order of the arithmetic shows
        ts = 0.3 + 1.7 * np.linspace(0.1, 0.9, 4)
        samples = lattice(ts, np.linspace(*x_range, 4), np.linspace(-1.3, 1.7, 4))
        _condition_matches_reference(PointSymmetry(tau, xi), SecondOrderODE(w), samples)

    @pytest.mark.parametrize("f, g", [(1.0, 1.0), (1.3, 0.7)])
    def test_autonomous_family(self, f, g):
        ode = SecondOrderODE.from_ep(time_function(repr(f * f)), time_function(repr(g)))
        for sym in autonomous_family(f):
            _condition_matches_reference(sym, ode, default_samples((0.0, 6.0)))

    @pytest.mark.parametrize("g_text,interval", G_CATALOG, ids=[g for g, _ in G_CATALOG])
    def test_surviving_symmetry(self, g_text, interval):
        fam = compatible_family(time_function(g_text), 1.1, 0.7, interval)
        sym, samples = surviving_symmetry(fam), default_samples(interval)
        _condition_matches_reference(sym, ep_ode(fam), samples)
        _condition_matches_reference(sym, SecondOrderODE.from_ep(fam.phi.scaled(1.1), fam.g), samples)

    def test_basis_family(self):
        phi = time_function("1+0.5*sin(t)")
        ode = SecondOrderODE.from_ep(phi, time_function("1"))
        for sym in basis_family(fundamental_pair(phi, (0.0, 10.0))):
            _condition_matches_reference(sym, ode, default_samples((0.0, 10.0)))

    def test_folding_can_drop_a_failing_node(self):
        # tau = log(t - 1) fails on t < 1, but w_t = 0 drops tau, and its
        # partials, which the condition keeps, hold no log
        sym = PointSymmetry(Unary("log", var("t") - const(1.0)), const(0.0))
        ode = SecondOrderODE.from_text("-x")
        samples = default_samples((0.0, 1.0))
        with pytest.raises(DomainError, match="log of non-positive"):
            _reference_residuals(sym, ode, samples)
        assert symmetry_residual(sym, ode, samples) > 0.0
        _condition_matches_reference(sym, ode, samples)

    def test_a_structural_zero_takes_its_terms_with_it(self, unit_ode):
        shift = point_symmetry("1", "0")
        assert symmetry_condition(shift, unit_ode) is const(0.0)

    def test_residual_evaluates_one_tree(self, unit_family, unit_ode, monkeypatch):
        calls = []
        original = symmetry.evaluate
        monkeypatch.setattr(symmetry, "evaluate", lambda *a, **k: calls.append(a[0]) or original(*a, **k))
        symmetry_residual(unit_family[1], unit_ode, default_samples((0.0, 6.0)))
        assert len(calls) == 1 and isinstance(calls[0], Expr)
        assert calls[0] is symmetry_condition(unit_family[1], unit_ode)

    def test_a_symmetry_holds_only_its_fields(self, diffs):
        fam = compatible_family(time_function("(1+t)^4"), 1.0, 1.0, (0.0, 3.0))
        members = (surviving_symmetry(fam), *autonomous_family(1.0), point_symmetry("t*x", "x^2"))
        diffs.clear()
        for s in members:
            sym = PointSymmetry(s.tau, s.xi, s.name, fam.g.memo)
            assert not hasattr(sym, "partials")
        assert diffs == []


class TestSampleShapes:
    # three (t, x) pairs are not two (t, x, v) triples, nor is an (8, 3)
    # lattice twelve (t, x) points
    @pytest.mark.parametrize(
        "samples",
        [[(0.5, 1.0), (1.0, 1.5), (1.5, 2.0)], np.ones(6), np.ones((2, 2, 3)), np.ones((4, 6))],
        ids=["pairs", "flat", "3-d", "6-columns"],
    )
    def test_residual_refuses_other_shapes(self, unit_family, unit_ode, samples):
        with pytest.raises(ValueError, match=r"\(N, 3\) array"):
            symmetry_residual(unit_family[1], unit_ode, samples)

    @pytest.mark.parametrize(
        "samples",
        [default_samples((0.0, 3.0), n=2), np.arange(1.0, 7.0), np.arange(1.0, 13.0).reshape(3, 2, 2)],
        ids=["lattice", "flat", "3-d"],
    )
    def test_structure_constants_refuse_other_shapes(self, unit_family, samples):
        with pytest.raises(ValueError, match=r"\(N, 2\) array"):
            structure_constants(unit_family, samples)


def _reference_bracket(s1, s2):
    """[X, Y] as built by differentiating each operand's components afresh."""

    def apply(sym, f):
        return sym.tau * differentiate(f, "t") + sym.xi * differentiate(f, "x")

    return apply(s1, s2.tau) - apply(s2, s1.tau), apply(s1, s2.xi) - apply(s2, s1.xi)


class TestLieBracket:
    def test_bracket_reuses_the_operands_partials(self, diffs):
        fam = compatible_family(time_function("(1.1+t)^4"), 1.2, 0.5, (0.0, 3.0))
        members = [*autonomous_family(1.3), surviving_symmetry(fam), point_symmetry("t*x", "x^2*sin(t)")]
        for s1, s2 in itertools.permutations(members, 2):
            diffs.clear()
            br = lie_bracket(s1, s2)
            # the very nodes, derived from the operands' components alone
            assert (br.tau, br.xi) == _reference_bracket(s1, s2)
            assert {node for node, _ in diffs} <= _nodes(s1.tau, s1.xi, s2.tau, s2.xi)
            diffs.clear()
            PointSymmetry(br.tau, br.xi)
            assert diffs == []

    @pytest.mark.parametrize("f", [1.0, 1.3])
    def test_structure_constants_differentiate_no_bracket(self, diffs, f):
        fam = autonomous_family(f)
        structure_constants(fam, pair_samples((0.0, 6.0)))
        assert diffs and {node for node, _ in diffs} <= _nodes(*(c for s in fam for c in (s.tau, s.xi)))

    def test_self_bracket_vanishes(self, unit_family):
        pts = pair_samples((0.0, 6.0))
        for s in unit_family:
            assert component_distance(lie_bracket(s, s), s, pts, scale=0.0) <= 1e-12

    def test_bracket_12_gives_twice_3(self, unit_family):
        g1, g2, g3 = unit_family
        pts = pair_samples((0.0, 6.0))
        assert component_distance(lie_bracket(g1, g2), g3, pts, scale=2.0) <= 1e-10

    def test_bracket_23_gives_minus_twice_1(self, unit_family):
        g1, g2, g3 = unit_family
        br = lie_bracket(g2, g3)
        pts = pair_samples((0.0, 6.0))
        assert component_distance(br, g1, pts, scale=-2.0) <= 1e-10
        # the competing reading -2 Gamma3 is far away
        assert component_distance(br, g3, pts, scale=-2.0) >= 0.1

    def test_frequency_scales_the_constants(self):
        fam = autonomous_family(2.0)
        pts = pair_samples((0.0, 3.0))
        br = lie_bracket(fam[0], fam[1])
        assert component_distance(br, fam[2], pts, scale=4.0) <= 1e-10

    def test_antisymmetry_and_bilinearity(self, unit_family):
        g1, g2, g3 = unit_family
        rng = np.random.default_rng(11)
        pts = [(rng.uniform(0.2, 5.8), rng.uniform(0.6, 1.8)) for _ in range(20)]
        ab = lie_bracket(g2, g3)
        ba = lie_bracket(g3, g2)
        assert component_distance(ab, ba, pts, scale=-1.0) <= 1e-10
        # [G1 + 2 G2, G3] = [G1, G3] + 2 [G2, G3]
        combo = point_symmetry("1+2*sin(2*t)", "2*x*cos(2*t)")
        lhs = lie_bracket(combo, g3)
        r13 = lie_bracket(g1, g3)
        r23 = lie_bracket(g2, g3)
        worst = 0.0
        for t, x in pts:
            a = np.asarray(lhs.components(t, x))
            b = np.asarray(r13.components(t, x)) + 2.0 * np.asarray(
                r23.components(t, x)
            )
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-10

    def test_jacobi_identity(self, unit_family):
        g1, g2, g3 = unit_family
        terms = [
            lie_bracket(lie_bracket(g1, g2), g3),
            lie_bracket(lie_bracket(g2, g3), g1),
            lie_bracket(lie_bracket(g3, g1), g2),
        ]
        worst = 0.0
        for t, x in pair_samples((0.0, 6.0)):
            total = sum(np.asarray(s.components(t, x)) for s in terms)
            worst = max(worst, float(np.max(np.abs(total))))
        assert worst <= 1e-8

    def test_bracket_name_composition(self, unit_family):
        br = lie_bracket(unit_family[0], unit_family[1])
        assert br.name == "[Gamma1,Gamma2]"


class TestStructureConstants:
    def test_autonomous_table(self, unit_family):
        c, fit = structure_constants(unit_family, pair_samples((0.0, 6.0)))
        assert fit <= 1e-8
        assert c[0, 1] == pytest.approx([0.0, 0.0, 2.0], abs=1e-6)
        assert c[0, 2] == pytest.approx([0.0, -2.0, 0.0], abs=1e-6)
        assert c[1, 2] == pytest.approx([-2.0, 0.0, 0.0], abs=1e-6)
        assert np.allclose(c[1, 0], -c[0, 1])

    def test_frequency_two_table(self):
        fam = autonomous_family(2.0)
        c, _ = structure_constants(fam, pair_samples((0.0, 3.0)))
        assert c[0, 1] == pytest.approx([0.0, 0.0, 4.0], abs=1e-6)

    def test_basis_family_table(self):
        basis = fundamental_pair(time_function("1"), (0.0, 10.0))
        fam = basis_family(basis)
        c, fit = structure_constants(fam, pair_samples((0.0, 10.0)))
        assert fit <= 1e-6
        # W = 1: [G1,G2] = G1, [G1,G3] = 2 G2, [G2,G3] = G3
        assert c[0, 1] == pytest.approx([1.0, 0.0, 0.0], abs=1e-6)
        assert c[0, 2] == pytest.approx([0.0, 2.0, 0.0], abs=1e-6)
        assert c[1, 2] == pytest.approx([0.0, 0.0, 1.0], abs=1e-6)

    def test_wronskian_scales_the_table(self):
        basis = basis_with_ics(
            time_function("1"), (0.0, 10.0), (1.0, 0.0), (0.0, 2.0)
        )
        c, _ = structure_constants(basis_family(basis), pair_samples((0.0, 10.0)))
        assert c[0, 1] == pytest.approx([2.0, 0.0, 0.0], abs=1e-6)
        assert c[0, 2] == pytest.approx([0.0, 4.0, 0.0], abs=1e-6)
        assert c[1, 2] == pytest.approx([0.0, 0.0, 2.0], abs=1e-6)

    def test_degenerate_set_rejected(self, unit_family):
        with pytest.raises(DegenerateBasisError):
            structure_constants(
                [unit_family[0], unit_family[0], unit_family[1]],
                pair_samples((0.0, 6.0)),
            )

    def test_killing_form_signature(self, unit_family):
        c, _ = structure_constants(unit_family, pair_samples((0.0, 6.0)))
        eigs = np.linalg.eigvalsh(killing_form(c))
        assert eigs == pytest.approx([-8.0, 8.0, 8.0], abs=1e-6)
        assert np.sum(eigs < 0) == 1 and np.sum(eigs > 0) == 2

    @pytest.mark.parametrize("phi_text", ["1", "1+0.5*sin(t)", "1+0.5*sin(3*t)", "2+t"])
    def test_sl2_survives_a_time_dependent_phi(self, phi_text):
        # paper claim 1: over any phi(t) the basis family closes with the table of W = 1
        basis = fundamental_pair(time_function(phi_text), (0.0, 10.0))
        assert basis.wronskian0 == 1.0
        pts10 = [(t, x) for t in np.linspace(0.3, 9.7, 7) for x in (0.7, 1.1, 1.9)]
        c, fit = structure_constants(basis_family(basis), pts10)
        assert fit <= 1e-9
        assert c[0, 1] == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)
        assert c[0, 2] == pytest.approx([0.0, 2.0, 0.0], abs=1e-9)
        assert c[1, 2] == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)
        # indefinite, so sl(2,R) and not so(3)
        assert np.linalg.eigvalsh(killing_form(c)) == pytest.approx([-4.0, 2.0, 4.0], abs=1e-8)

    def test_basis_family_killing_signature(self):
        basis = fundamental_pair(time_function("1"), (0.0, 10.0))
        c, _ = structure_constants(basis_family(basis), pair_samples((0.0, 10.0)))
        eigs = np.linalg.eigvalsh(killing_form(c))
        assert np.sum(eigs < -1e-8) == 1 and np.sum(eigs > 1e-8) == 2


class TestFamilies:
    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            autonomous_family(0.0)

    def test_basis_family_closed_forms(self):
        # over (cos, sin) the leading member is cos^2 t d_t - x sin t cos t d_x
        basis = fundamental_pair(time_function("1"), (0.0, 10.0))
        fam = basis_family(basis)
        for t, x in pair_samples((0.0, 10.0)):
            tau, xi = fam[0].components(t, x)
            assert tau == pytest.approx(math.cos(t) ** 2, abs=1e-8)
            assert xi == pytest.approx(-x * math.sin(t) * math.cos(t), abs=1e-8)
            tau, xi = fam[1].components(t, x)
            assert tau == pytest.approx(math.sin(t) * math.cos(t), abs=1e-8)
            assert xi == pytest.approx(x * math.cos(2 * t) / 2, abs=1e-8)

    def test_families_span_the_same_space(self, unit_family):
        basis = fundamental_pair(time_function("1"), (0.0, 10.0))
        fam = basis_family(basis)
        pts = pair_samples((0.0, 10.0))
        design = []
        for t, x in pts:
            vals = [s.components(t, x) for s in unit_family]
            design.append([v[0] for v in vals])
            design.append([v[1] for v in vals])
        design = np.asarray(design)
        for member in fam:
            target = []
            for t, x in pts:
                tau, xi = member.components(t, x)
                target.extend((tau, xi))
            coeff, *_ = np.linalg.lstsq(design, np.asarray(target), rcond=None)
            assert np.max(np.abs(design @ coeff - target)) <= 1e-8

    def test_nonautonomous_basis_family_is_symmetry(self):
        phi = time_function("1+0.5*sin(t)")
        basis = fundamental_pair(phi, (0.0, 10.0))
        fam = basis_family(basis)
        ode = SecondOrderODE.from_ep(phi, time_function("1"))
        samples = default_samples((0.0, 10.0))
        for s in fam:
            assert symmetry_residual(s, ode, samples) <= 1e-6


class TestCompatibleFamily:
    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0)])
    def test_nonfinite_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="interval must be finite"):
            compatible_family(time_function("exp(4*t)"), 1.0, 1.0, interval)

    def test_exponential_case_is_scaling(self):
        fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
        sym = surviving_symmetry(fam)
        for t, x in pair_samples((0.0, 2.0)):
            tau, xi = sym.components(t, x)
            assert tau == pytest.approx(1.0, abs=1e-12)
            assert xi == pytest.approx(x, abs=1e-12)
        for t in np.linspace(0.1, 1.9, 9):
            assert fam.phi.eval(t) == pytest.approx(1.0, abs=1e-12)
            assert fam.a.eval(t) == pytest.approx(1.0, abs=1e-12)

    def test_quartic_case_closed_form(self):
        m = 1.0
        fam = compatible_family(time_function("(1+t)^4"), 1.0, m, (0.0, 3.0))
        for t in np.linspace(0.1, 2.9, 9):
            assert fam.a.eval(t) == pytest.approx(1.0 + t, rel=1e-12)
            assert fam.phi.eval(t) == pytest.approx(
                (m + 0.25) / (1.0 + t) ** 2, rel=1e-10
            )
        sym = surviving_symmetry(fam)
        tau, xi = sym.components(1.0, 2.0)
        assert tau == pytest.approx(2.0, rel=1e-12)
        assert xi == pytest.approx(3.0, rel=1e-12)

    def test_omega_combines_m_and_c0(self):
        fam = compatible_family(time_function("exp(4*t)"), 2.0, 1.0, (0.0, 2.0))
        assert fam.omega == 1.25

    @pytest.mark.parametrize("g_text,interval", G_CATALOG, ids=[g for g, _ in G_CATALOG])
    @pytest.mark.parametrize("m", M_VALUES)
    def test_catalog_symmetry_residual(self, g_text, interval, m):
        fam = compatible_family(time_function(g_text), 1.0, m, interval)
        sym = surviving_symmetry(fam)
        res = symmetry_residual(sym, ep_ode(fam), default_samples(interval))
        assert res <= 1e-6

    def test_decreasing_g_rejected(self):
        with pytest.raises(ValueError):
            compatible_family(time_function("sin(t)"), 1.0, 1.0, (0.0, math.pi))

    def test_decreasing_g_names_the_first_point(self, monkeypatch):
        # G' = -2 (t - 1) on the samples 0, 1, 2, 3 is not positive at 1, 2 and 3
        monkeypatch.setattr(symmetry, "_VALIDATION_SAMPLES", 4)
        with pytest.raises(ValueError) as exc:
            compatible_family(time_function("5-(t-1)^2"), 1.0, 1.0, (0.0, 3.0))
        assert type(exc.value) is ValueError
        assert str(exc.value) == "G' is not positive at t=1.0"

    def test_constant_g_rejected(self):
        with pytest.raises(ValueError):
            compatible_family(time_function("1"), 1.0, 1.0, (0.0, 1.0))

    def test_zero_c0_rejected(self):
        with pytest.raises(ValueError):
            compatible_family(time_function("exp(4*t)"), 0.0, 1.0, (0.0, 1.0))

    def test_ansatz_is_c0_times_surviving(self):
        fam = compatible_family(time_function("(1+t)^4"), 2.0, 1.0, (0.0, 3.0))
        # the ansatz tau = a(t), xi = (C0 + a'/2) x that closes the determining equations
        ans = PointSymmetry(fam.a.expr, (const(2.0) + const(0.5) * fam.a.derivative_expr(1)) * var("x"))
        sym = surviving_symmetry(fam)
        assert component_distance(ans, sym, pair_samples((0.0, 3.0)), scale=2.0) <= 1e-10


_RELATION_GRID = np.linspace(0.5, 3.0, 201)
_RELATION_G = ["exp(t)", "exp(4*t)", "(1+t)^4", "(2+t)^3"]


def _relation_reading(phi, g, a):
    """max|R| over the grid, and the largest sum there of |a'''|, |4 phi a'| and |2 phi' a|."""
    r = evaluate(relation(phi, g), {"t": _RELATION_GRID})
    aj, pj = a.jet(_RELATION_GRID, 3), phi.jet(_RELATION_GRID, 1)
    terms = np.abs(aj[3]) + np.abs(4.0 * pj[0] * aj[1]) + np.abs(2.0 * pj[1] * aj[0])
    return float(np.max(np.abs(r))), float(np.max(terms))


class TestRelation:
    """Paper claim 3: a symmetry survives a time-dependent G only where R[phi, G] vanishes."""

    @pytest.mark.parametrize("g_text", _RELATION_G)
    def test_the_compatible_phi_is_a_root(self, g_text):
        g = time_function(g_text)
        fam = compatible_family(g, 1.0, 0.5, (0.5, 3.0))
        worst, scale = _relation_reading(fam.phi, g, fam.a)
        assert worst <= 8.0 * np.finfo(float).eps * scale
        if g_text.startswith("exp"):
            assert worst == 0.0  # a = 4G/G' is 4 at every point

    @pytest.mark.parametrize("g_text", _RELATION_G)
    def test_a_perturbed_phi_is_not(self, g_text):
        g = time_function(g_text)
        fam = compatible_family(g, 1.0, 0.5, (0.5, 3.0))
        perturbed = TimeFunction(fam.phi.expr + const(0.01) * sin(var("t")), g.memo)
        worst, _ = _relation_reading(perturbed, g, fam.a)
        assert worst >= 1e-2

    @pytest.mark.parametrize("g_text", _RELATION_G)
    @pytest.mark.parametrize("c0,m", [(1.0, 0.5), (1.3, 0.7), (0.8, 1.9)])
    def test_the_family_gives_back_its_m(self, g_text, c0, m):
        # the converse: a^2 phi + a a''/2 - a'^2/4 is the constant M the family was built with
        fam = compatible_family(time_function(g_text), c0, m, (0.5, 3.0))
        a, phi = fam.a.jet(_RELATION_GRID, 2), fam.phi.jet(_RELATION_GRID, 0)[0]
        assert np.max(np.abs(a[0] ** 2 * phi + a[0] * a[2] / 2.0 - a[1] ** 2 / 4.0 - m)) <= 1e-14

    def test_a_vanishing_g_prime_raises_where_it_vanishes(self):
        r = relation(time_function("1+0.5*sin(t)"), time_function("1+t^2"))
        assert np.isfinite(evaluate(r, {"t": np.array([0.5, 1.0, 2.0])})).all()
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(r, {"t": np.array([0.5, 0.0, 2.0])})

    def test_a_constant_g_is_refused(self):
        with pytest.raises(ValueError, match="G' is identically zero"):
            relation(time_function("1+0.5*sin(t)"), time_function("2"))


class TestCoefficientPerturbation:
    """A constant shift of the x-coefficient must break the surviving symmetry
    whenever the scaling function a(t) actually varies; for exponential G the
    shift is absorbed by the symmetry itself and only a time-dependent tilt
    breaks it.  The corrections ledger records the discriminating residuals.
    """

    @pytest.mark.parametrize("g_text,interval", POWER_LAW_G, ids=[g for g, _ in POWER_LAW_G])
    def test_power_law_shift_breaks_it(self, g_text, interval):
        fam = compatible_family(time_function(g_text), 1.0, 1.0, interval)
        sym = surviving_symmetry(fam)
        shifted = TimeFunction(Binary("+", fam.phi.expr, Const(0.1)))
        ode = SecondOrderODE.from_ep(shifted, fam.g)
        assert symmetry_residual(sym, ode, default_samples(interval)) > 1e-3

    def test_exponential_shift_is_absorbed(self):
        fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
        sym = surviving_symmetry(fam)
        shifted = TimeFunction(Binary("+", fam.phi.expr, Const(0.1)))
        ode = SecondOrderODE.from_ep(shifted, fam.g)
        assert symmetry_residual(sym, ode, default_samples((0.0, 2.0))) <= 1e-8

    def test_exponential_ramp_breaks_it(self):
        fam = compatible_family(time_function("exp(4*t)"), 1.0, 1.0, (0.0, 2.0))
        sym = surviving_symmetry(fam)
        ramp = TimeFunction(
            Binary("+", fam.phi.expr, Binary("*", Const(0.1), var("t")))
        )
        ode = SecondOrderODE.from_ep(ramp, fam.g)
        assert symmetry_residual(sym, ode, default_samples((0.0, 2.0))) > 1e-3


class TestSampleLattice:
    def test_default_lattice_shape(self):
        samples = default_samples((0.0, 10.0))
        assert len(samples) == 125
        ts = {s[0] for s in samples}
        xs = {s[1] for s in samples}
        vs = {s[2] for s in samples}
        assert len(ts) == len(xs) == len(vs) == 5
        assert min(ts) == pytest.approx(1.0)
        assert max(ts) == pytest.approx(9.0)
        assert min(xs) >= 0.5 and max(xs) <= 2.0
        assert min(vs) >= -1.0 and max(vs) <= 1.0

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_lattice_is_the_t_major_tuple_list(self, n):
        ts = 0.5 + 6.5 * np.linspace(0.1, 0.9, n)
        xs, vs = np.linspace(0.5, 2.0, n), np.linspace(-1.0, 1.0, n)
        tuples = [(float(t), float(x), float(v)) for t in ts for x in xs for v in vs]
        samples = default_samples((0.5, 7.0), n)
        assert samples.shape == (n**3, 3) and samples.dtype == np.float64
        assert samples.tolist() == [list(p) for p in tuples]
        assert samples.tobytes() == lattice(ts, xs, vs).tobytes() == np.array(tuples).tobytes()

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (math.nan, 1.0)])
    def test_nonfinite_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="interval must be finite"):
            default_samples(interval)


def _w_at(ode, t, x, v):
    """w at one point, through the grid evaluator."""
    one = {"t": np.array([t]), "x": np.array([x]), "v": np.array([v])}
    return float(evaluate(ode.w, one)[0])


class TestSecondOrderODE:
    def test_from_text_matches_from_ep(self):
        a = SecondOrderODE.from_ep(time_function("1"), time_function("4"))
        b = SecondOrderODE.from_text("-x + 4/x^3")
        for t, x, v in default_samples((0.0, 2.0)):
            assert _w_at(a, t, x, v) == pytest.approx(_w_at(b, t, x, v), rel=1e-12)

    def test_velocity_dependence_allowed(self):
        ode = SecondOrderODE.from_text("-x - 0.5*v")
        assert _w_at(ode, 0.0, 2.0, 4.0) == pytest.approx(-4.0)
