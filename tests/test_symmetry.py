import itertools
import math

import numpy as np
import pytest

from epwb import (
    DegenerateBasisError,
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
    structure_constants,
    surviving_symmetry,
    symmetry_residual,
    time_function,
)
from epwb import symmetry
from epwb.expressions import Binary, Const, TimeFunction, const, differentiate, evaluate, var
from epwb.symmetry import default_samples
from tests.conftest import G_CATALOG, M_VALUES, POWER_LAW_G


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
        samples = default_samples((0.0, 1.0), x_range=(1.0, 2.0))
        assert symmetry_residual(shift, ode, samples) >= 0.1

    def test_constant_forcing_level_is_irrelevant(self, unit_family):
        samples = default_samples((0.0, 6.0))
        for g_text in ("1", "7"):
            ode = SecondOrderODE.from_ep(time_function("1"), time_function(g_text))
            for s in unit_family:
                assert symmetry_residual(s, ode, samples) <= 1e-8


def _reference_bracket(s1, s2):
    """[X, Y] as built by differentiating each operand's components afresh."""

    def apply(sym, f):
        return sym.tau * differentiate(f, "t") + sym.xi * differentiate(f, "x")

    return apply(s1, s2.tau) - apply(s2, s1.tau), apply(s1, s2.xi) - apply(s2, s1.xi)


class TestLieBracket:
    def test_bracket_reuses_the_operands_partials(self, monkeypatch):
        fam = compatible_family(time_function("(1.1+t)^4"), 1.2, 0.5, (0.0, 3.0))
        members = [*autonomous_family(1.3), surviving_symmetry(fam), point_symmetry("t*x", "x^2*sin(t)")]
        calls = []

        def counting(*args):
            calls.append(args)
            return differentiate(*args)

        monkeypatch.setattr(symmetry, "differentiate", counting)
        for s1, s2 in itertools.permutations(members, 2):
            calls.clear()
            br = lie_bracket(s1, s2)
            bracket_calls = len(calls)
            assert (br.tau, br.xi) == _reference_bracket(s1, s2)
            # the very nodes, and no derivative beyond the bracket's own partials
            calls.clear()
            PointSymmetry(br.tau, br.xi)
            assert bracket_calls == len(calls)

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

    def test_decreasing_g_names_the_first_point(self):
        # G' = -2 (t - 1) on the samples 0, 1, 2, 3 is not positive at 1, 2 and 3
        with pytest.raises(ValueError) as exc:
            compatible_family(time_function("5-(t-1)^2"), 1.0, 1.0, (0.0, 3.0), 4)
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
        interval, x_range, v_range = (0.5, 7.0), (0.25, 3.0), (-2.0, 1.5)
        ts = 0.5 + 6.5 * np.linspace(0.1, 0.9, n)
        xs, vs = np.linspace(*x_range, n), np.linspace(*v_range, n)
        tuples = [(float(t), float(x), float(v)) for t in ts for x in xs for v in vs]
        samples = default_samples(interval, x_range, v_range, n)
        assert samples.shape == (n**3, 3) and samples.dtype == np.float64
        assert samples.tolist() == [list(p) for p in tuples]
        assert samples.tobytes() == np.array(tuples).tobytes()

    def test_custom_ranges(self):
        samples = default_samples((0.0, 1.0), x_range=(1.0, 2.0), v_range=(0.0, 0.0), n=3)
        assert len(samples) == 27
        assert all(s[2] == 0.0 for s in samples)

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
