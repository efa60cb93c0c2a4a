import math

import numpy as np
import pytest

from epwb import (
    DomainError,
    ThirdOrderConfig,
    drift,
    first_integral,
    fundamental_pair,
    integrate,
    product_solution,
    rho_substitution,
    third_order_residual,
    third_order_system,
    time_function,
)
from tests.conftest import grid


@pytest.fixture(scope="module")
def cfg2() -> ThirdOrderConfig:
    return ThirdOrderConfig(time_function("2"))


@pytest.fixture(scope="module")
def basis_half(cfg2):
    # a = 2 halves to the unit oscillator: u = cos t, v = sin t
    return fundamental_pair(cfg2.base_phi(), (0.0, 10.0))


class TestTrajectories:
    def test_constant_solution(self, cfg2):
        tr = integrate(third_order_system(cfg2), (1.0, 0.0, 0.0), (0.0, 10.0))
        for t in grid(0.0, 10.0, 41):
            assert tr.sample(t)[0] == pytest.approx(1.0, abs=1e-9)

    def test_cos_double_angle(self, cfg2):
        # w = cos 2t has (w, w', w'')(0) = (1, 0, -4)
        tr = integrate(third_order_system(cfg2), (1.0, 0.0, -4.0), (0.0, 10.0))
        for t in grid(0.0, 10.0, 41):
            assert tr.sample(t)[0] == pytest.approx(math.cos(2 * t), abs=1e-8)

    def test_sin_double_angle(self, cfg2):
        tr = integrate(third_order_system(cfg2), (0.0, 2.0, 0.0), (0.0, 10.0))
        for t in grid(0.0, 10.0, 41):
            assert tr.sample(t)[0] == pytest.approx(math.sin(2 * t), abs=1e-8)

    def test_residual_self_consistency(self, cfg2):
        tr = integrate(third_order_system(cfg2), (1.0, 0.5, -2.0), (0.0, 10.0))
        assert third_order_residual(cfg2, tr, grid(0.0, 10.0)) <= 1e-7


class TestFirstIntegral:
    def test_constant_solution_level(self, cfg2):
        w = time_function("1")
        assert first_integral(cfg2, w, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_square_level(self, cfg2):
        # w = cos^2 t = (1 + cos 2t)/2: a perfect square has I = 0
        w = time_function("cos(t)^2")
        for t in (0.0, 0.7, 1.9):
            assert first_integral(cfg2, w, t) == pytest.approx(0.0, abs=1e-12)

    def test_conserved_along_trajectory(self):
        cfg = ThirdOrderConfig(time_function("2*(1+0.5*sin(t))"))
        tr = integrate(third_order_system(cfg), (1.5, 0.2, -1.0), (0.0, 10.0))
        vals = [first_integral(cfg, tr, t) for t in grid(0.0, 10.0, 101)]
        assert drift(vals) <= 1e-7

    @pytest.mark.parametrize("a_text", ["2*(1+0.5*sin(t))", "2.5/((1+t)^2)"])
    def test_grid_equals_per_point_calls(self, a_text):
        cfg = ThirdOrderConfig(time_function(a_text))
        tr = integrate(third_order_system(cfg), (1.5, 0.2, -1.0), (0.0, 10.0))
        basis = fundamental_pair(cfg.base_phi(), (0.0, 10.0))
        ts = grid(0.0, 10.0, 101)
        for w in (tr, product_solution(basis, 1.0, 0.3, 2.0)):
            values = first_integral(cfg, w, ts)
            assert values.shape == ts.shape
            singles = [first_integral(cfg, w, t) for t in ts]
            assert all(type(v) is float for v in singles)
            assert np.array_equal(values, singles)

    def test_derivative_vanishes(self, cfg2):
        # finite differences of I along any trajectory stay at rounding level
        tr = integrate(third_order_system(cfg2), (2.0, -0.3, 0.6), (0.0, 10.0))
        h = 1e-3
        for t in grid(0.5, 9.5, 19):
            d = (first_integral(cfg2, tr, t + h) - first_integral(cfg2, tr, t - h)) / (
                2 * h
            )
            assert abs(d) <= 1e-6


class TestProductSolutions:
    def test_sum_of_squares_is_constant(self, cfg2, basis_half):
        w = product_solution(basis_half, 1.0, 0.0, 1.0)
        for t in grid(0.0, 10.0, 41):
            assert w.jet([t], 0)[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert third_order_residual(cfg2, w, grid(0.0, 10.0)) <= 1e-8

    def test_single_square(self, cfg2, basis_half):
        w = product_solution(basis_half, 1.0, 0.0, 0.0)
        for t in grid(0.0, 10.0, 41):
            assert w.jet([t], 0)[0, 0] == pytest.approx(math.cos(t) ** 2, abs=1e-8)
        assert third_order_residual(cfg2, w, grid(0.0, 10.0)) <= 1e-8

    def test_random_combinations_with_varying_coefficient(self):
        cfg = ThirdOrderConfig(time_function("2*(1+0.5*sin(t))"))
        basis = fundamental_pair(cfg.base_phi(), (0.0, 10.0))
        rng = np.random.default_rng(7)
        for _ in range(8):
            A, B, C = rng.uniform(-2.0, 2.0, size=3)
            w = product_solution(basis, A, B, C)
            assert third_order_residual(cfg, w, grid(0.0, 10.0, 101)) <= 1e-6

    def test_halved_coefficient_is_essential(self, cfg2):
        # building products over the unhalved oscillator misses the equation
        wrong_basis = fundamental_pair(cfg2.a, (0.0, 6.0))
        w = product_solution(wrong_basis, 1.0, 0.0, 0.0)
        assert third_order_residual(cfg2, w, grid(0.0, 6.0)) >= 0.5

    def test_gram_independence(self, basis_half):
        # u^2, uv, v^2 are linearly independent along the orbit
        ts = grid(0.2, 9.8, 60)
        cols = []
        for A, B, C in ((1, 0, 0), (0, 0.5, 0), (0, 0, 1)):
            w = product_solution(basis_half, A, B, C)
            cols.append(w.jet(ts, 0)[0])
        m = np.array(cols)
        gram = m @ m.T
        assert np.linalg.matrix_rank(gram, tol=1e-8) == 3


class TestRhoSubstitution:
    def test_constant_branch(self, cfg2):
        rho, res = rho_substitution(cfg2, time_function("1"), grid(0.0, 10.0))
        assert rho.jet([3.0], 0)[0, 0] == 1.0
        assert res <= 1e-12

    def test_elliptic_branch(self, cfg2, basis_half):
        # w = 4cos^2 + sin^2 has I = 8, so rho solves the h^2 = 4 equation
        w = product_solution(basis_half, 4.0, 0.0, 1.0)
        assert first_integral(cfg2, w, 0.0) == pytest.approx(8.0, abs=1e-8)
        rho, res = rho_substitution(cfg2, w, grid(0.0, 10.0))
        assert rho.jet([0.0], 0)[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert res <= 1e-7

    def test_zero_crossing_rejected(self, cfg2, basis_half):
        w = product_solution(basis_half, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            rho_substitution(cfg2, w, [0.0, math.pi / 2, 1.0])

    def test_empty_grid(self, cfg2):
        with pytest.raises(ValueError):
            rho_substitution(cfg2, time_function("1"), [])


class TestResidualErrors:
    def test_empty_grid(self, cfg2):
        with pytest.raises(ValueError):
            third_order_residual(cfg2, time_function("1"), [])
