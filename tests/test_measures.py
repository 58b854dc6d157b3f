import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import from_masses, refine
from rational_logit.measures import (Grid, GridMeasure, mean_and_std, pdf_values, uniform,
                                     variational_distance)


def masses_strategy(n):
    return hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.0)).filter(
        lambda v: v.sum() > 1e-3)


def measure_strategy(n):
    return masses_strategy(n).map(lambda v: from_masses(Grid(n), v))


class TestGrid:
    def test_midpoints(self):
        np.testing.assert_allclose(Grid(4).midpoints, [0.125, 0.375, 0.625, 0.875])

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            Grid(1)


class TestConstruction:
    def test_uniform_two_cells(self):
        np.testing.assert_array_equal(uniform(Grid(2)).mass, [0.5, 0.5])

    def test_uniform_500(self):
        mu = uniform(Grid(500))
        assert np.all(mu.mass == 0.002)

    def test_uniform_mean_is_half(self):
        mean, _ = mean_and_std(uniform(Grid(4)))
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_from_masses_normalizes(self):
        np.testing.assert_allclose(from_masses(Grid(2), [1.0, 3.0]).mass, [0.25, 0.75])

    def test_from_masses_point_mass(self):
        np.testing.assert_array_equal(from_masses(Grid(3), [0, 0, 5]).mass, [0, 0, 1])

    def test_from_masses_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            from_masses(Grid(2), [0.0, 0.0])

    def test_from_masses_rejects_negative(self):
        with pytest.raises(ValueError):
            from_masses(Grid(2), [-0.1, 1.1])

    @pytest.mark.parametrize("mass, message", [
        ([1.0], "shape"), ([0.25, 0.25, 0.5], "shape"), ([[0.5, 0.5]], "shape"),
        ([1.5, -0.5], "nonnegative"), ([np.nan, 1.0], "nonnegative"),
    ], ids=["short", "long", "two-dimensional", "negative", "nan"])
    def test_rejects_bad_mass(self, mass, message):
        with pytest.raises(ValueError, match=message):
            GridMeasure(Grid(2), np.array(mass))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            GridMeasure(Grid(2), np.array([0.5, 0.6]))

    def test_mass_is_immutable(self):
        mu = uniform(Grid(4))
        with pytest.raises(ValueError):
            mu.mass[0] = 1.0


class TestVariationalDistance:
    def test_identical(self):
        mu = uniform(Grid(8))
        assert variational_distance(mu, mu) == 0.0

    def test_disjoint_supports_saturate(self):
        g = Grid(2)
        mu = GridMeasure(g, np.array([1.0, 0.0]))
        nu = GridMeasure(g, np.array([0.0, 1.0]))
        assert variational_distance(mu, nu) == 2.0

    def test_against_sign_pattern_oracle(self):
        # brute force the sup over all test functions g in {-1, 1}^4
        g = Grid(4)
        mu = GridMeasure(g, np.array([0.4, 0.1, 0.3, 0.2]))
        nu = GridMeasure(g, np.array([0.1, 0.4, 0.2, 0.3]))
        diff = mu.mass - nu.mass
        oracle = max(abs(np.dot(signs, diff))
                     for signs in itertools.product([-1.0, 1.0], repeat=4))
        assert oracle == pytest.approx(0.8, abs=1e-15)
        assert variational_distance(mu, nu) == pytest.approx(oracle, abs=1e-15)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="grid mismatch"):
            variational_distance(uniform(Grid(2)), uniform(Grid(3)))

    @given(measure_strategy(6), measure_strategy(6), measure_strategy(6))
    @settings(max_examples=150)
    def test_metric_properties(self, mu, nu, rho):
        d_mn = variational_distance(mu, nu)
        assert d_mn == pytest.approx(variational_distance(nu, mu), abs=1e-15)
        assert d_mn <= 2.0 + 1e-12
        assert d_mn <= (variational_distance(mu, rho)
                        + variational_distance(rho, nu) + 1e-12)
        if np.array_equal(mu.mass, nu.mass):
            assert d_mn == 0.0
        elif d_mn == 0.0:
            np.testing.assert_array_equal(mu.mass, nu.mass)


class TestPdf:
    def test_uniform_pdf_is_one(self):
        assert np.all(pdf_values(uniform(Grid(500))) == 1.0)

    def test_two_cells(self):
        mu = GridMeasure(Grid(2), np.array([0.25, 0.75]))
        np.testing.assert_array_equal(pdf_values(mu), [0.5, 1.5])

    @given(measure_strategy(10))
    def test_integrates_back_to_one(self, mu):
        assert pdf_values(mu).sum() / 10 == pytest.approx(1.0, abs=1e-12)

    @given(measure_strategy(8))
    def test_round_trips_mass_exactly(self, mu):
        # N a power of two: multiply/divide by N is exact
        np.testing.assert_array_equal(pdf_values(mu) / 8, mu.mass)

    @given(measure_strategy(10))
    def test_round_trips_mass(self, mu):
        np.testing.assert_allclose(pdf_values(mu) / 10, mu.mass, rtol=1e-15)


class TestMoments:
    def test_uniform_500(self):
        mean, std = mean_and_std(uniform(Grid(500)))
        assert mean == pytest.approx(0.5, abs=1e-9)
        assert std == pytest.approx(1.0 / math.sqrt(12.0), abs=1e-4)

    def test_point_mass(self):
        g = Grid(8)
        for i in range(8):
            raw = np.zeros(8)
            raw[i] = 1.0
            mean, std = mean_and_std(GridMeasure(g, raw))
            assert mean == pytest.approx(g.midpoints[i], abs=1e-15)
            assert std == pytest.approx(0.0, abs=1e-9)

    def test_two_point(self):
        mean, std = mean_and_std(GridMeasure(Grid(2), np.array([0.5, 0.5])))
        assert mean == pytest.approx(0.5, abs=1e-15)
        assert std == pytest.approx(0.25, abs=1e-15)

    @given(measure_strategy(12))
    def test_range(self, mu):
        mean, std = mean_and_std(mu)
        assert 0.0 <= mean <= 1.0
        assert 0.0 <= std <= 0.5


class TestRefine:
    def test_preserves_density(self):
        mu = GridMeasure(Grid(2), np.array([0.25, 0.75]))
        fine = refine(mu, 3)
        assert fine.grid.n == 6
        np.testing.assert_allclose(pdf_values(fine), [0.5] * 3 + [1.5] * 3)

    @given(measure_strategy(5), st.integers(1, 6))
    def test_preserves_moments(self, mu, factor):
        mean0, std0 = mean_and_std(mu)
        mean1, std1 = mean_and_std(refine(mu, factor))
        assert mean1 == pytest.approx(mean0, abs=1e-12)
        # refinement can only spread mass inside cells; stds stay close
        assert abs(std1 - std0) <= 0.5 / mu.grid.n

    def test_identity_factor(self):
        mu = uniform(Grid(4))
        np.testing.assert_array_equal(refine(mu, 1).mass, mu.mass)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            refine(uniform(Grid(4)), 0)
