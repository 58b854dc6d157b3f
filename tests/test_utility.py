import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (BilinearUtility, DenseCompetition, from_masses, lipschitz_ratio_sample,
                     ramp_tail_mass)
from rational_logit.measures import Grid, GridMeasure, uniform
from rational_logit.utility import CompetitionParams, CompetitionUtility


# ramp widths as functions of N: the default 1/N, a few cells, and wide ramps
EPSILONS = {"1/N": lambda n: None, "3/N": lambda n: 3.0 / n,
            "0.1": lambda n: 0.1, "2.0": lambda n: 2.0}


def random_measure(n, rng):
    return from_masses(Grid(n), rng.random(n) + 1e-9)


def measure_strategy(n):
    return hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)).filter(
        lambda v: v.sum() > 1e-3).map(lambda v: from_masses(Grid(n), v))


class TestBilinearUtility:
    def test_constant_kernel(self):
        g = Grid(10)
        kernel = BilinearUtility(g, lambda x, y: np.ones_like(x * y))
        np.testing.assert_allclose(kernel.values(uniform(g).mass), 1.0, atol=1e-15)

    def test_mean_kernel_on_uniform(self):
        g = Grid(500)
        kernel = BilinearUtility(g, lambda x, y: y + 0.0 * x)
        np.testing.assert_allclose(kernel.values(uniform(g).mass), 0.5, atol=1e-12)

    def test_product_kernel_point_mass(self):
        g = Grid(8)
        kernel = BilinearUtility(g, lambda x, y: x * y)
        for k in range(8):
            raw = np.zeros(8)
            raw[k] = 1.0
            mu = GridMeasure(g, raw)
            # direct summation oracle
            oracle = np.array([g.midpoints[j] * g.midpoints[k] for j in range(8)])
            np.testing.assert_allclose(kernel.values(mu.mass), oracle, atol=1e-15)

    def test_direct_summation_oracle(self):
        g = Grid(6)
        rng = np.random.default_rng(7)
        kernel = BilinearUtility(g, lambda x, y: np.sin(3 * x) * y ** 2 + x)
        mu = random_measure(6, rng)
        x = g.midpoints
        oracle = [sum((np.sin(3 * x[j]) * x[k] ** 2 + x[j]) * mu.mass[k] for k in range(6))
                  for j in range(6)]
        np.testing.assert_allclose(kernel.values(mu.mass), oracle, rtol=1e-13)

    def test_grid_mismatch(self):
        kernel = BilinearUtility(Grid(4), lambda x, y: x + y)
        with pytest.raises(ValueError, match="grid mismatch"):
            kernel.values(uniform(Grid(5)).mass)

    def test_rejects_nonfinite_kernel(self):
        with pytest.raises(ValueError):
            BilinearUtility(Grid(2), lambda x, y: np.array([[1.0, np.inf], [0.0, 0.0]]))

    @given(measure_strategy(6), measure_strategy(6), st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_linear_in_measure(self, mu, nu, lam):
        g = Grid(6)
        kernel = BilinearUtility(g, lambda x, y: x - 2.0 * y + x * y)
        mix = GridMeasure(g, lam * mu.mass + (1.0 - lam) * nu.mass)
        expected = (lam * kernel.values(mu.mass)
                    + (1.0 - lam) * kernel.values(nu.mass))
        np.testing.assert_allclose(kernel.values(mix.mass), expected, atol=1e-12)


class TestRampTailMass:
    def test_at_left_edge(self):
        g = Grid(10)
        rng = np.random.default_rng(3)
        for mu in (uniform(g), random_measure(10, rng)):
            value = ramp_tail_mass(g, mu, 0.0, g.cell_width)
            assert 1.0 - mu.mass[0] - 1e-12 <= value <= 1.0 + 1e-12

    def test_empty_first_cell_gives_one(self):
        g = Grid(10)
        raw = np.ones(10)
        raw[0] = 0.0
        mu = from_masses(g, raw)
        assert ramp_tail_mass(g, mu, 0.0, g.cell_width) == pytest.approx(1.0, abs=1e-12)

    def test_beyond_right_edge(self):
        g = Grid(10)
        eps = g.cell_width
        assert ramp_tail_mass(g, uniform(g), 1.0 + eps, eps) == 0.0

    def test_half_ramp_on_point_mass(self):
        g = Grid(10)
        k = 4
        raw = np.zeros(10)
        raw[k] = 1.0
        mu = GridMeasure(g, raw)
        eps = 0.05
        m = g.midpoints[k]
        assert ramp_tail_mass(g, mu, m + eps / 2.0, eps) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            ramp_tail_mass(Grid(4), uniform(Grid(4)), 0.5, 0.0)

    @given(measure_strategy(8), st.floats(-0.2, 1.2), st.floats(-0.2, 1.2))
    @settings(max_examples=100)
    def test_nonincreasing_in_x_and_bounded(self, mu, x1, x2):
        g = Grid(8)
        lo, hi = min(x1, x2), max(x1, x2)
        t_lo = ramp_tail_mass(g, mu, lo, 0.1)
        t_hi = ramp_tail_mass(g, mu, hi, 0.1)
        assert t_hi <= t_lo + 1e-12
        assert -1e-12 <= t_hi and t_lo <= 1.0 + 1e-12


class TestCompetitionUtility:
    def test_fitted_params_at_left_edge(self):
        # cost ~ 0 at x ~ 0, tail mass ~ 1 so no award: U ~ b * E|0 - y| = b/2
        g = Grid(500)
        params = CompetitionParams(a=0.27, b=0.23, c=1.0, d=1.0, alpha=0.2)
        u = CompetitionUtility(g, params).values(uniform(g).mass)
        assert u[0] == pytest.approx(0.115, abs=1e-3)

    def test_cost_only(self):
        g = Grid(50)
        rng = np.random.default_rng(11)
        params = CompetitionParams(a=0.4, b=0.0, d=0.0)
        for mu in (uniform(g), random_measure(50, rng)):
            np.testing.assert_allclose(CompetitionUtility(g, params).values(mu.mass),
                                       -0.4 * g.midpoints ** 2, atol=1e-15)

    def test_award_only_on_uniform(self):
        # tail mass ~ 1 - x, so the award kicks in above x = 1 - alpha
        g = Grid(500)
        params = CompetitionParams(a=0.0, b=0.0, d=1.0, alpha=0.2)
        u = CompetitionUtility(g, params).values(uniform(g).mass)
        x = g.midpoints
        # midpoint-rule oracle on the ramp sum
        eps = g.cell_width
        oracle = np.array([max(0.2 - np.clip((x - xi + eps) / eps, 0, 1).mean(), 0.0)
                           for xi in x])
        np.testing.assert_allclose(u, oracle, atol=1e-14)
        assert np.all(u[x < 0.8 - 2 * eps] == 0.0)
        above = x > 0.8 + 2 * eps
        np.testing.assert_allclose(u[above], x[above] - 0.8, atol=2.0 * eps)

    def test_d_zero_equals_bilinear(self):
        g = Grid(40)
        rng = np.random.default_rng(5)
        params = CompetitionParams(a=0.3, b=0.7, c=1.5, d=0.0)
        kernel = BilinearUtility(g, lambda x, y: -0.3 * x ** 2 + 0.7 * np.abs(x - y) ** 1.5)
        for _ in range(5):
            mu = random_measure(40, rng)
            np.testing.assert_allclose(CompetitionUtility(g, params).values(mu.mass),
                                       kernel.values(mu.mass), atol=1e-12)

    def test_bounded_by_coarse_bound(self):
        g = Grid(30)
        rng = np.random.default_rng(13)
        params = CompetitionParams(a=0.27, b=0.23, c=1.0, d=1.0, alpha=0.2)
        bound = params.a + params.b + params.d
        for _ in range(20):
            u = CompetitionUtility(g, params).values(random_measure(30, rng).mass)
            assert np.all(np.abs(u) <= bound + 1e-12)

    def test_zero_exponent_convention(self):
        # |0|^0 == 1: c = 0 turns the reward into a constant b
        g = Grid(4)
        params = CompetitionParams(a=0.0, b=0.5, c=0.0, d=0.0)
        np.testing.assert_allclose(CompetitionUtility(g, params).values(uniform(g).mass), 0.5,
                                   atol=1e-15)

    def test_epsilon_defaults_to_cell_width(self):
        g = Grid(25)
        assert CompetitionParams().resolve_epsilon(g) == pytest.approx(0.04)
        assert CompetitionParams(epsilon=0.01).resolve_epsilon(g) == 0.01

    def test_tiny_epsilon_builds_without_warning(self):
        # a ramp narrower than one cell is the default's: only lag 0, in the suffix sum
        g = Grid(50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = CompetitionUtility(g, CompetitionParams(epsilon=1e-320))
        stack = np.random.default_rng(5).dirichlet(np.ones(50), size=3)
        np.testing.assert_array_equal(tiny.values(stack),
                                      CompetitionUtility(g, CompetitionParams()).values(stack))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CompetitionParams(a=-0.1)
        with pytest.raises(ValueError):
            CompetitionParams(alpha=1.0)
        with pytest.raises(ValueError):
            CompetitionParams(epsilon=0.0)

    @pytest.mark.parametrize("field", ["a", "b", "c", "d", "epsilon"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, True, False])
    def test_rejects_nonfinite_params(self, field, value):
        with pytest.raises(ValueError, match=field):
            CompetitionParams(**{field: value})

    @pytest.mark.parametrize("n", [2, 3, 64, 501])
    @pytest.mark.parametrize("eps", list(EPSILONS))
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
    def test_matches_dense_oracle(self, c, eps, n):
        g = Grid(n)
        params = CompetitionParams(a=0.3, b=0.7, c=c, d=1.0, alpha=0.5, epsilon=EPSILONS[eps](n))
        model, dense = CompetitionUtility(g, params), DenseCompetition(g, params)
        rng = np.random.default_rng(n)
        for _ in range(3):
            mu = random_measure(n, rng)
            np.testing.assert_allclose(model.values(mu.mass), dense.values(mu.mass),
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 64, 501])
    @pytest.mark.parametrize("eps", ["1/N", "3/N", "0.1"])
    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
    def test_stack_matches_rows_bit_for_bit(self, c, eps, n):
        # the batched Euler loop relies on each row of a (B, N) stack
        # getting exactly the bits of an (N,) call
        g = Grid(n)
        params = CompetitionParams(a=0.3, b=0.7, c=c, d=1.0, alpha=0.5, epsilon=EPSILONS[eps](n))
        model = CompetitionUtility(g, params)
        rng = np.random.default_rng(n)
        stack = np.stack([random_measure(n, rng).mass for _ in range(4)])
        u = model.values(stack)
        assert u.shape == (4, n)
        for row, mass in zip(u, stack):
            np.testing.assert_array_equal(row, model.values(mass))

    def test_wide_grid_closed_form(self):
        # dense N x N float64 matrices would take 26.8 GiB each here
        n = 60_000
        g = Grid(n)
        params = CompetitionParams()
        u = CompetitionUtility(g, params).values(uniform(g).mass)
        i = np.arange(n, dtype=float)
        offsets = (i * (i + 1) + (n - 1 - i) * (n - i)) / 2.0  # sum_j |i - j|
        closed = (-params.a * g.midpoints ** 2 + params.b * offsets / n ** 2
                  + params.d * np.maximum(params.alpha - (n - i) / n, 0.0))
        np.testing.assert_allclose(u, closed, rtol=0, atol=1e-12)

    def test_deterministic(self):
        g = Grid(20)
        mu = random_measure(20, np.random.default_rng(1))
        model = CompetitionUtility(g, CompetitionParams())
        np.testing.assert_array_equal(model.values(mu.mass), model.values(mu.mass))


class TestPerRowWeights:
    @pytest.mark.parametrize("c", [0.0, 1.0, 1.5])
    @pytest.mark.parametrize("eps_name", ["1/N", "3/N"])
    def test_each_row_gets_its_own_models_bits(self, c, eps_name):
        # a and b per row: each row of a stack, and each cut of the model,
        # gets the bits of the model of that row's parameters alone
        n = 64
        rng = np.random.default_rng(7)
        params = [CompetitionParams(a=a, b=b, c=c, epsilon=EPSILONS[eps_name](n))
                  for a, b in rng.uniform(0.1, 0.4, (4, 2))]
        model = CompetitionUtility(Grid(n), params)
        stack = rng.dirichlet(np.ones(n), size=4)
        u = model.values(stack)
        for i, point in enumerate(params):
            alone = CompetitionUtility(Grid(n), point).values(stack[i])
            assert np.array_equal(u[i], alone)
            assert np.array_equal(model.rows(np.array([i])).values(stack[i:i + 1])[0], alone)
        index = np.array([0, 2, 3])
        assert np.array_equal(model.rows(index).values(stack[index]), u[index])

    def test_shared_model_is_every_rows_model(self):
        model = CompetitionUtility(Grid(16), CompetitionParams())
        assert model.rows(np.array([3])) is model and model.rows(np.array([0, 1])) is model

    def test_rows_differ_only_in_a_and_b(self):
        with pytest.raises(ValueError, match="differ at most in a and b"):
            CompetitionUtility(Grid(16), [CompetitionParams(), CompetitionParams(c=1.5)])


class TestLipschitzRatio:
    def test_constant_kernel_gives_zero(self):
        g = Grid(10)
        model = BilinearUtility(g, lambda x, y: np.full_like(x * y, 3.0))
        rng = np.random.default_rng(2)
        for _ in range(10):
            mu, nu = random_measure(10, rng), random_measure(10, rng)
            assert lipschitz_ratio_sample(model, mu, nu) <= 1e-12

    def test_bounded_kernel_bounds_ratio(self):
        g = Grid(16)
        model = BilinearUtility(g, lambda x, y: np.sin(5 * x * y))  # |f| <= 1
        rng = np.random.default_rng(4)
        for _ in range(50):
            mu, nu = random_measure(16, rng), random_measure(16, rng)
            assert lipschitz_ratio_sample(model, mu, nu) <= 1.0 + 1e-12

    def test_competition_model_ratio(self):
        # bilinear part contributes at most b, the award part at most d
        g = Grid(64)
        params = CompetitionParams(a=0.27, b=0.23, c=1.0, d=1.0, alpha=0.2)
        model = CompetitionUtility(g, params)
        rng = np.random.default_rng(6)
        for _ in range(100):
            mu, nu = random_measure(64, rng), random_measure(64, rng)
            assert lipschitz_ratio_sample(model, mu, nu) <= params.b + params.d + 1e-12

    def test_rejects_equal_measures(self):
        g = Grid(4)
        model = BilinearUtility(g, lambda x, y: x + y)
        with pytest.raises(ValueError):
            lipschitz_ratio_sample(model, uniform(g), uniform(g))
