import ast
import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (BilinearUtility, DenseCompetition, anderson_lstsq, euler_row, from_masses,
                     run_row, solve_stationary_single, weights_row)
from rational_logit import dynamics
from rational_logit.calibration import empirical_stats, fit_search
from rational_logit.dataio import bundled_catches_path, load_catches, load_run_config
from rational_logit.dynamics import (ANDERSON_BETA, ANDERSON_MAX_ITERATIONS, ANDERSON_SAFE_BETA,
                                     LIMIT_NOISE, STACK_CELLS, DegenerateWeightsError,
                                     DynamicBatch, DynamicConfig, StationarySolution,
                                     eta_convergence_table, euler_step, record_steps,
                                     run_to_stationary, run_until, solve_stationary, weights)
from rational_logit.measures import (ConfigError, Grid, GridMeasure, pdf_values, uniform,
                                     variational_distance)
from rational_logit.utility import CompetitionParams, CompetitionUtility

FIT_AB = Path(__file__).resolve().parents[1] / "configs" / "fit_ab.json"
FITTED = FIT_AB.with_name("fitted.json")


def constant_model(grid, value=1.0):
    return BilinearUtility(grid, lambda x, y: np.full_like(x * y, value))


class FixedUtility:
    """U_i = x_i whatever the mass, so the weights are one fixed measure."""

    def __init__(self, grid):
        self.x = grid.midpoints

    def values(self, mass):
        return np.broadcast_to(self.x, np.shape(mass))


class ChasingUtility:
    """U_i = x_i - mean(m) - 0.05, for an (N,) vector or each row of a
    stack. From uniform a limit run moves its mass right, and it
    degenerates once its mean passes the last midpoint less 0.05."""

    def __init__(self, grid):
        self.x = grid.midpoints

    def values(self, mass):
        return self.x - (mass @ self.x)[..., None] - 0.05


class NaNRowUtility:
    """The competition utility, except that row `row` of a stack is NaN."""

    def __init__(self, grid, row):
        self.inner = CompetitionUtility(grid, CompetitionParams())
        self.row = row

    def values(self, mass):
        u = self.inner.values(mass)
        if u.ndim == 2 and len(u) > self.row:
            u[self.row] = np.nan
        return u


class FlickeringUtility:
    """The competition utility, except that the evaluations numbered in
    `bad` (from 1) are negative everywhere, so there the limit weight map
    degenerates."""

    def __init__(self, grid, bad):
        self.inner = CompetitionUtility(grid, CompetitionParams())
        self.bad, self.calls = bad, 0

    def values(self, mass):
        self.calls += 1
        u = self.inner.values(mass)
        return -np.abs(u) - 1.0 if self.calls in self.bad else u

    def rows(self, index):
        return self


class CountingModel:
    """A model that counts its evaluations."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def values(self, mass):
        self.calls += 1
        return self.inner.values(mass)


def count_lstsq(monkeypatch) -> list:
    """Let np.linalg.lstsq run as before, appending to the returned list
    once per call."""
    lstsq, calls = np.linalg.lstsq, []
    monkeypatch.setattr(dynamics.np.linalg, "lstsq",
                        lambda *args, **kwargs: calls.append(1) or lstsq(*args, **kwargs))
    return calls


def per_eta_reference(base, model, etas, times):
    """The eta table's errors from one run_until per eta against one
    run_until of the limit equation: the reference of the batched table."""
    def pdfs(eta):
        cfg = DynamicConfig(base.kappa, eta, base.grid, base.dt, base.delta)
        snapshots = run_row(cfg, model, times)
        return {t: pdf_values(m) for t, m in snapshots if t in times}

    ref = pdfs(LIMIT_NOISE)
    return {(eta, t): float(np.max(np.abs(pdf - ref[t])))
            for eta in etas for t, pdf in pdfs(eta).items()}


class TestConfig:
    def test_limit_needs_positive_kappa(self):
        with pytest.raises(ValueError):
            DynamicConfig(0.0, LIMIT_NOISE, Grid(4))

    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            DynamicConfig(1.0, 0.1, Grid(4), dt=1.5)
        with pytest.raises(ValueError):
            DynamicConfig(1.0, 0.1, Grid(4), dt=0.0)

    def test_defaults(self):
        cfg = DynamicConfig(1.0, 0.01, Grid(500))
        assert cfg.dt == 0.001 and cfg.delta == 1e-11

    def test_rejects_bad_kappa(self):
        for bad in (-0.1, 1.5, float("nan"), True, "0.5"):
            with pytest.raises(ValueError, match="kappa"):
                DynamicConfig(bad, 0.1, Grid(4))

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            DynamicConfig(1.0, -0.1, Grid(4))

    @pytest.mark.parametrize("field", ["eta", "delta", "kappa"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, True])
    def test_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=field):
            DynamicConfig(**{"kappa": 1.0, "eta": 0.1, "grid": Grid(4), field: value})

    @pytest.mark.parametrize("grid", [500, None, "Grid(500)"])
    def test_rejects_grid_that_is_no_grid(self, grid):
        with pytest.raises(ConfigError) as err:
            DynamicConfig(1.0, 0.01, grid)
        assert err.value.problems == [f"grid: Grid instance required (got {grid!r})"]

    def test_default_step_budget(self):
        assert DynamicConfig(1.0, 0.01, Grid(4)).max_steps == 1_000_000

    @pytest.mark.parametrize("value", [-1, 1.5, 1e6, True, None])
    def test_rejects_non_integer_or_empty_budget(self, value):
        with pytest.raises(ValueError, match="max_steps"):
            DynamicConfig(1.0, 0.01, Grid(4), max_steps=value)


class TestLogitWeights:
    def test_constant_utility_gives_uniform(self):
        cfg = DynamicConfig(0.7, 0.3, Grid(8))
        w = weights_row(cfg, np.full(8, 2.5))
        np.testing.assert_allclose(w, 1.0 / 8.0, atol=1e-15)

    def test_two_cell_frozen_value(self):
        # e_1(0.75) = 2, weights (1, 2) -> (1/3, 2/3)
        cfg = DynamicConfig(1.0, 1.0, Grid(2))
        w = weights_row(cfg, np.array([0.0, 0.75]))
        np.testing.assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)

    @given(hnp.arrays(np.float64, 16, elements=st.floats(-5.0, 5.0)),
           st.floats(0.01, 1.0))
    @settings(max_examples=200)
    def test_kappa_zero_matches_softmax(self, u, eta):
        cfg = DynamicConfig(0.0, eta, Grid(16))
        w = weights_row(cfg, u)
        ref = np.exp(u / eta - np.max(u / eta))
        ref /= ref.sum()
        np.testing.assert_allclose(w, ref, atol=1e-12)

    def test_huge_utilities_do_not_overflow(self):
        cfg = DynamicConfig(0.0, 1e-4, Grid(4))
        w = weights_row(cfg, np.array([0.0, 1.0, 2.0, 3.0]))
        assert np.all(np.isfinite(w))
        assert w[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", [1.0, 0.0])
    def test_overflowing_u_over_eta_names_eta(self, kappa):
        # at eta 1e-310 u/eta leaves the float range, at 1e-300 it does not
        u = np.linspace(-0.5, 0.5, 8)
        with pytest.raises(ValueError, match="eta is too small"):
            weights_row(DynamicConfig(kappa, 1e-310, Grid(8)), u)
        assert np.isfinite(weights_row(DynamicConfig(kappa, 1e-300, Grid(8)), u)).all()

    def test_huge_finite_utilities_are_in_range(self):
        # sqrt(u.u) overflows in the first case, and divided by 1e-300 it
        # would in the second; each row's own max |u| then decides
        w = weights_row(DynamicConfig(1.0, 1.0, Grid(3)), np.array([-1e200, 0.0, 1e200]))
        assert np.isfinite(w).all() and w.argmax() == 2
        batch = DynamicBatch(DynamicConfig(1.0, eta, Grid(4)) for eta in (1e-300, 1.0))
        assert np.isfinite(weights(batch, np.array([np.full(4, 1e-10), np.full(4, 1e100)]))).all()

    def test_overflowing_row_of_a_stack_names_eta(self):
        # the first row's 0.5/1e-310 leaves the float range; the second's fits
        batch = DynamicBatch(DynamicConfig(1.0, eta, Grid(8)) for eta in (1e-310, 1.0))
        u = np.array([np.linspace(-0.5, 0.5, 8), np.full(8, 1e-300)])
        with pytest.raises(ValueError, match="eta is too small"):
            weights(batch, u)
        assert np.isfinite(weights(batch, u * [[1e-20], [1.0]])).all()


class TestLimitWeights:
    def test_linear_case(self):
        cfg = DynamicConfig(1.0, LIMIT_NOISE, Grid(3))
        w = weights_row(cfg, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(w, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_square_case(self):
        cfg = DynamicConfig(0.5, LIMIT_NOISE, Grid(2))
        w = weights_row(cfg, np.array([1.0, 2.0]))
        np.testing.assert_allclose(w, [0.2, 0.8], rtol=1e-14)

    def test_negative_part_clipped(self):
        cfg = DynamicConfig(1.0, LIMIT_NOISE, Grid(3))
        w = weights_row(cfg, np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-15)

    def test_all_nonpositive_is_degenerate(self):
        cfg = DynamicConfig(1.0, LIMIT_NOISE, Grid(3))
        with pytest.raises(DegenerateWeightsError):
            weights_row(cfg, np.array([-1.0, -0.5, 0.0]))

    def test_overflowing_ln_u_over_kappa_names_eta(self):
        # ln(u)/kappa leaves the float range at kappa 1e-310 but not at 1e-300
        u = np.array([-1.0, 0.5, 2.0])
        with pytest.raises(ValueError, match="eta is too small"):
            weights_row(DynamicConfig(1e-310, LIMIT_NOISE, Grid(3)), u)
        np.testing.assert_array_equal(weights_row(DynamicConfig(1e-300, LIMIT_NOISE, Grid(3)), u),
                                      [0.0, 0.0, 1.0])


class TestBatch:
    # kappa 0 and kappa 0.5 noise rows, limit rows at the start and in the
    # middle, and repeated kappas, so rows fall into several groups
    ROWS = [(1.0, LIMIT_NOISE), (1.0, 0.1), (1.0, 1e-4), (0.5, LIMIT_NOISE), (0.0, 0.05),
            (0.5, 0.01), (0.5, 0.02)]

    def batch(self, grid):
        return DynamicBatch(DynamicConfig(kappa, eta, grid) for kappa, eta in self.ROWS)

    def test_groups_runs_of_rows(self):
        batch = self.batch(Grid(8))
        assert [(g[0], g[1], g[2] is None) for g in batch.groups] == [
            (slice(0, 1), 1.0, True), (slice(1, 3), 1.0, False), (slice(3, 4), 0.5, True),
            (slice(4, 5), 0.0, False), (slice(5, 7), 0.5, False)]

    def test_weights_rows_match_single_configs_bit_for_bit(self):
        g = Grid(64)
        batch = self.batch(g)
        u = np.random.default_rng(3).normal(0.1, 1.0, (len(self.ROWS), 64))
        w = weights(batch, u)
        for row, cfg, ui in zip(w, batch.configs, u):
            np.testing.assert_array_equal(row, weights_row(cfg, ui))

    def test_euler_rows_match_single_steps_bit_for_bit(self):
        g = Grid(64)
        batch = self.batch(g)
        model = CompetitionUtility(g, CompetitionParams())
        stack = np.repeat(uniform(g).mass[None, :], len(self.ROWS), axis=0)
        singles = list(stack)
        for _ in range(50):
            stack = euler_step(batch, model, stack)
            singles = [euler_row(cfg, model, m) for cfg, m in zip(batch.configs, singles)]
        for row, single in zip(stack, singles):
            np.testing.assert_array_equal(row, single)

    # the second case holds two rows per stack, so its three rows span two stacks
    @pytest.mark.parametrize("rows, n, times, stacks", [
        (ROWS, 64, [0.5, 1.0], 1), (ROWS[:3], STACK_CELLS // 2 - 1, [0.0, 0.3, 0.5], 2)])
    def test_run_until_rows_match_batches_of_one(self, rows, n, times, stacks):
        g = Grid(n)
        configs = [DynamicConfig(kappa, eta, g, dt=0.1) for kappa, eta in rows]
        model = CountingModel(CompetitionUtility(g, CompetitionParams()))
        runs = run_until(DynamicBatch(configs), model, times)
        assert model.calls == stacks * round(times[-1] / 0.1)
        assert len(runs) == len(configs)
        for run, cfg in zip(runs, configs):
            alone = run_row(cfg, model.inner, times)
            assert [t for t, _ in run] == [t for t, _ in alone] == sorted({0.0, *times})
            for (_, mu), (_, nu) in zip(run, alone):
                assert np.array_equal(mu.mass, nu.mass)

    def test_run_until_checks_times_against_the_smallest_budget(self):
        g = Grid(8)
        batch = DynamicBatch(DynamicConfig(1.0, 0.5, g, dt=0.25, max_steps=m) for m in (4, 2, 3))
        model = CountingModel(constant_model(g))
        assert len(run_until(batch, model, [0.5])) == 3
        model.calls = 0
        with pytest.raises(ConfigError) as err:
            run_until(batch, model, [0.5, 0.75])
        assert err.value.problems == ["record time 0.75 is step 3 of dt=0.25, past max_steps=2"]
        assert model.calls == 0

    def test_rejects_empty_and_mixed_rows(self):
        with pytest.raises(ValueError, match="at least one row"):
            DynamicBatch([])
        with pytest.raises(ValueError, match="share the grid and dt"):
            DynamicBatch([DynamicConfig(1.0, 0.1, Grid(8)), DynamicConfig(1.0, 0.1, Grid(9))])
        with pytest.raises(ValueError, match="share the grid and dt"):
            DynamicBatch([DynamicConfig(1.0, 0.1, Grid(8)),
                          DynamicConfig(1.0, 0.1, Grid(8), dt=0.01)])

    def test_rejects_stack_of_other_shape(self):
        g = Grid(8)
        batch = self.batch(g)
        for u in (np.ones(8), np.ones((len(self.ROWS) - 1, 8)), np.ones((len(self.ROWS), 9))):
            with pytest.raises(ValueError, match="utility stack has shape"):
                weights(batch, u)

    def test_degenerate_limit_row_raises(self):
        g = Grid(8)
        batch = DynamicBatch([DynamicConfig(1.0, 0.1, g), DynamicConfig(1.0, LIMIT_NOISE, g)])
        u = np.stack([np.ones(8), -np.ones(8)])
        with pytest.raises(DegenerateWeightsError):
            weights(batch, u)

    def test_nan_in_one_row_stops_the_step(self):
        g = Grid(16)
        batch = self.batch(g)
        stack = np.repeat(uniform(g).mass[None, :], len(self.ROWS), axis=0)
        with pytest.raises(ValueError, match="utility vector must be finite"):
            euler_step(batch, NaNRowUtility(g, row=2), stack)


class TestRhsAndEuler:
    def test_fixed_point_gives_zero_rhs(self):
        g = Grid(8)
        cfg = DynamicConfig(0.5, 0.2, g)
        model = constant_model(g)
        mass = uniform(g).mass
        np.testing.assert_allclose(weights_row(cfg, model.values(mass)) - mass, 0.0, atol=1e-15)

    def test_rhs_sums_to_zero(self):
        g = Grid(32)
        cfg = DynamicConfig(1.0, 0.05, g)
        model = CompetitionUtility(g, CompetitionParams())
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = from_masses(g, rng.random(32))
            assert abs((weights_row(cfg, model.values(mu.mass)) - mu.mass).sum()) <= 1e-12

    def test_point_mass_relaxes_to_uniform_rate(self):
        g = Grid(8)
        cfg = DynamicConfig(1.0, 0.5, g)
        model = constant_model(g)
        raw = np.zeros(8)
        raw[3] = 1.0
        mu = GridMeasure(g, raw)
        np.testing.assert_allclose(weights_row(cfg, model.values(mu.mass)) - mu.mass,
                                   1.0 / 8.0 - mu.mass, atol=1e-14)

    def test_full_replacement_at_dt_one(self):
        g = Grid(8)
        cfg = DynamicConfig(1.0, 0.5, g, dt=1.0)
        model = constant_model(g)
        raw = np.zeros(8)
        raw[0] = 1.0
        out = euler_row(cfg, model, GridMeasure(g, raw).mass)
        np.testing.assert_allclose(out, 1.0 / 8.0, atol=1e-14)

    def test_stationary_point_is_fixed(self):
        g = Grid(8)
        cfg = DynamicConfig(1.0, 0.5, g)
        model = constant_model(g)
        out = euler_row(cfg, model, uniform(g).mass)
        np.testing.assert_allclose(out, 1.0 / 8.0, atol=1e-15)

    def test_mass_drift_over_many_steps(self):
        g = Grid(16)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.01)
        model = constant_model(g)
        raw = np.zeros(16)
        raw[0] = 1.0
        mass = GridMeasure(g, raw).mass
        for _ in range(10_000):
            mass = euler_row(cfg, model, mass)
        assert abs(mass.sum() - 1.0) <= 1e-12
        assert np.all(mass >= 0.0)


class TestRunUntil:
    def test_snapshot_bookkeeping(self):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25)
        model = constant_model(g)
        times = [0.25, 0.5, 0.75]
        snapshots = run_row(cfg, model, times)
        assert len(snapshots) == 4
        assert [t for t, _ in snapshots] == [0.0, 0.25, 0.5, 0.75]

    def test_constant_utility_stays_uniform(self):
        g = Grid(6)
        cfg = DynamicConfig(0.3, 0.1, g, dt=0.1)
        snapshots = run_row(cfg, constant_model(g), [0.5, 1.0])
        for _, mu in snapshots:
            np.testing.assert_allclose(mu.mass, 1.0 / 6.0, atol=1e-12)

    def test_geometric_decay_to_fixed_weights(self):
        # a utility that ignores the mass fixes the weights w:
        # mu_{k+1} - w = (1-dt) (mu_k - w), closed form
        g = Grid(8)
        dt = 0.001
        cfg = DynamicConfig(1.0, 0.5, g, dt=dt)
        model = FixedUtility(g)
        w = GridMeasure(g, weights_row(cfg, model.x))
        times = [0.5, 1.0, 2.0]
        snapshots = run_row(cfg, model, times)
        d0 = variational_distance(uniform(g), w)
        assert d0 > 0.1
        for t, mu in snapshots[1:]:
            expected = d0 * (1.0 - dt) ** round(t / dt)
            assert variational_distance(mu, w) == pytest.approx(expected, rel=1e-9)
            assert expected == pytest.approx(d0 * math.exp(-t), rel=1e-2)

    def test_rejects_offgrid_record_time(self):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25)
        with pytest.raises(ValueError):
            run_row(cfg, constant_model(g), [0.3])

    @pytest.mark.parametrize("times", [[-0.25, 0.5], [0.5, -0.25]])
    def test_rejects_negative_record_time(self, times):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25)
        with pytest.raises(ValueError, match="record times must be >= 0"):
            run_row(cfg, constant_model(g), times)

    @pytest.mark.parametrize("times", [[], [0.0], [0.0, 0]])
    def test_rejects_times_without_a_positive_one(self, times):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25)
        with pytest.raises(ValueError, match="positive maximum"):
            run_row(cfg, constant_model(g), times)

    # both on step 2; a positive time within the tolerance of step 0
    @pytest.mark.parametrize("times, problem", [([0.5, 0.5], "both fall on step 2"),
                                                ([0.5, 0.5000000001], "both fall on step 2"),
                                                ([1e-12, 0.5], "falls on step 0")])
    def test_rejects_times_that_share_a_step(self, times, problem):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25)
        with pytest.raises(ValueError, match=problem):
            run_row(cfg, constant_model(g), times)

    @pytest.mark.parametrize("times", [[math.nan, 1.0], [math.inf], [-math.inf, 0.5]])
    def test_rejects_non_finite_record_time(self, times):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25)
        with pytest.raises(ConfigError, match="is not a finite number"):
            run_row(cfg, constant_model(g), times)

    # the config accepts a subnormal dt, on which even t = 1 is inf steps
    @pytest.mark.parametrize("times, dt", [([1e308], 0.001), ([0.5, 1.0], 1e-320)])
    def test_rejects_time_whose_step_count_overflows(self, times, dt):
        cfg = DynamicConfig(1.0, 0.5, Grid(4), dt=dt)
        with pytest.raises(ConfigError) as err:
            record_steps(times, cfg.dt)
        assert err.value.problems == [f"record time {t} is more steps of dt={dt} than a float "
                                      "can count" for t in times]

    def test_rejects_time_past_max_steps_before_a_step(self):
        g = Grid(4)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25, max_steps=2)
        assert record_steps([0.5], cfg.dt, cfg.max_steps) == {2: 0.5}  # the budget itself
        model = CountingModel(constant_model(g))
        problem = "record time 0.75 is step 3 of dt=0.25, past max_steps=2"
        with pytest.raises(ConfigError) as single:
            run_row(cfg, model, [0.5, 0.75])
        with pytest.raises(ConfigError) as table:
            eta_convergence_table(cfg, model, [0.5], [0.5, 0.75])
        assert single.value.problems == table.value.problems == [problem]
        assert model.calls == 0

    def test_degenerate_carries_step_index(self):
        # strictly negative utility everywhere: first step already fails
        g = Grid(8)
        cfg = DynamicConfig(1.0, LIMIT_NOISE, g)
        model = BilinearUtility(g, lambda x, y: -1.0 - x * y)
        with pytest.raises(DegenerateWeightsError) as err:
            run_row(cfg, model, [1.0])
        assert err.value.step == 0


class TestRunToStationary:
    def test_returns_an_euler_solution(self):
        g = Grid(16)
        cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-9, max_steps=100_000)
        solution = run_to_stationary(cfg, CompetitionUtility(g, CompetitionParams()))
        assert isinstance(solution, StationarySolution)
        assert solution.solver == "euler" and solution.fallback is None
        assert solution.stationary

    def test_immediate_stationarity(self):
        g = Grid(8)
        cfg = DynamicConfig(1.0, 0.5, g, max_steps=100)
        traj = run_to_stationary(cfg, constant_model(g))
        assert traj.stationary
        assert traj.steps == 0

    def test_budget_exhaustion(self):
        g = Grid(16)
        cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-300, max_steps=10)
        model = CompetitionUtility(g, CompetitionParams())
        traj = run_to_stationary(cfg, model)
        assert not traj.stationary
        assert traj.steps == 10

    def test_fixed_point_residual_bound_at_termination(self):
        g = Grid(64)
        cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-9, max_steps=100_000)
        model = CompetitionUtility(g, CompetitionParams())
        traj = run_to_stationary(cfg, model)
        assert traj.stationary
        mu = traj.final_measure
        # the stationarity check controls the per-step PDF change, which is
        # exactly dt * N * |rhs|; the detected state must satisfy that bound
        residual = weights_row(cfg, model.values(mu.mass)) - mu.mass
        assert g.n * cfg.dt * np.max(np.abs(residual)) <= cfg.delta
        w = GridMeasure(g, weights_row(cfg, model.values(mu.mass)))
        assert variational_distance(w, mu) <= cfg.delta / cfg.dt

    def test_nonfinite_utility_rejected_by_both_loops(self):
        # the weight map's finite check is the only per-step guard on U
        class NaNUtility:
            def values(self, mass):
                return np.full_like(mass, np.nan)

        g = Grid(8)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25, max_steps=10)
        with pytest.raises(ValueError, match="utility vector must be finite"):
            run_row(cfg, NaNUtility(), [1.0])
        with pytest.raises(ValueError, match="utility vector must be finite"):
            run_to_stationary(cfg, NaNUtility())

    @pytest.mark.parametrize("c, eps_cells", [(1.0, 1), (1.5, 3)])
    def test_same_stop_as_dense_oracle(self, c, eps_cells):
        g = Grid(64)
        cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-10, max_steps=100_000)
        params = CompetitionParams(c=c, epsilon=eps_cells / g.n)
        fast = run_to_stationary(cfg, CompetitionUtility(g, params))
        dense = run_to_stationary(cfg, DenseCompetition(g, params))
        assert (fast.stationary, fast.steps) == (dense.stationary, dense.steps)
        assert fast.stationary
        np.testing.assert_allclose(pdf_values(fast.final_measure), pdf_values(dense.final_measure),
                                   rtol=0, atol=1e-12)

    def test_simplex_preserved_along_the_way(self):
        g = Grid(32)
        cfg = DynamicConfig(0.5, 0.02, g, dt=0.01, delta=1e-10, max_steps=100_000)
        model = CompetitionUtility(g, CompetitionParams())
        traj = run_to_stationary(cfg, model)
        mu = traj.final_measure
        assert np.all(mu.mass >= 0.0)
        assert abs(mu.mass.sum() - 1.0) <= 1e-12


class TestSolveStationary:
    def test_immediate_stationarity(self):
        g = Grid(8)
        cfg = DynamicConfig(1.0, 0.5, g, max_steps=100)
        [solution] = solve_stationary(DynamicBatch([cfg]), constant_model(g))
        assert solution.solver == "anderson" and solution.fallback is None
        assert (solution.stationary, solution.steps) == (True, 0)

    def test_residual_within_delta_at_returned_point(self):
        g = Grid(64)
        cfg = DynamicConfig(0.5, 0.02, g, dt=0.01, delta=1e-10, max_steps=100_000)
        model = CompetitionUtility(g, CompetitionParams())
        [solution] = solve_stationary(DynamicBatch([cfg]), model)
        assert solution.solver == "anderson"
        mass = solution.final_measure.mass
        residual = weights_row(cfg, model.values(mass)) - mass
        assert g.n * np.max(np.abs(residual)) <= cfg.delta
        assert np.all(mass >= 0.0) and abs(mass.sum() - 1.0) <= 1e-12

    def test_repeatable_bit_for_bit(self):
        g = Grid(64)
        cfg = DynamicConfig(1.0, 0.01, g, dt=0.01, delta=1e-10, max_steps=100_000)
        model = CompetitionUtility(g, CompetitionParams())
        [first], [second] = (solve_stationary(DynamicBatch([cfg]), model) for _ in range(2))
        assert (first.stationary, first.steps) == (second.stationary, second.steps)
        assert np.array_equal(first.final_measure.mass, second.final_measure.mass)

    @pytest.mark.parametrize("max_steps", [5, ANDERSON_MAX_ITERATIONS + 10])
    def test_unreachable_delta_falls_back_to_euler(self, max_steps):
        g = Grid(16)
        cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-300, max_steps=max_steps)
        model = CompetitionUtility(g, CompetitionParams())
        [solution] = solve_stationary(DynamicBatch([cfg]), model)
        reference = run_to_stationary(cfg, model)
        assert solution.solver == "euler"
        budget = min(max_steps, ANDERSON_MAX_ITERATIONS)
        assert f"missed delta within {budget} iterations" in solution.fallback
        assert (solution.stationary, solution.steps) == (reference.stationary, reference.steps)
        assert not solution.stationary
        assert np.array_equal(solution.final_measure.mass, reference.final_measure.mass)

    @pytest.mark.parametrize("limit, max_steps, calls", [
        (False, 5, 1), (False, ANDERSON_MAX_ITERATIONS + 10, 2), (True, 10, 2)],
        ids=["eta-0.05-budget-5", "eta-0.05-stagnant", "limit-kappa-0.1"])
    def test_budget_counts_both_mixing_weights(self, monkeypatch, limit, max_steps, calls):
        # every Anderson call, at either weight, draws on one budget of
        # min(max_steps, 2000) iterations, so at most that many updates
        # precede the Euler fallback. The large weight gives up when its
        # residual stagnates at roundoff (no halving within 50 iterations)
        # or, at the limit with kappa 0.1, grows after a few iterations
        if limit:
            run = load_run_config(FITTED)
            cfg = replace(run.dynamic, kappa=0.1, eta=LIMIT_NOISE, max_steps=max_steps)
            model = CompetitionUtility(cfg.grid, run.utility)
        else:
            g = Grid(16)
            cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-300, max_steps=max_steps)
            model = CompetitionUtility(g, CompetitionParams())
        anderson, evaluations = dynamics._anderson, []

        def counted(batch, model, *args, **kwargs):
            counter = CountingModel(model)
            evaluations.append(counter)
            return anderson(batch, counter, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_anderson", counted)
        [solution] = solve_stationary(DynamicBatch([cfg]), model)
        budget = min(max_steps, ANDERSON_MAX_ITERATIONS)
        assert solution.solver == "euler"
        assert f"missed delta within {budget} iterations" in solution.fallback
        assert len(evaluations) == calls
        # a call's last evaluation makes no update
        assert sum(c.calls - 1 for c in evaluations) <= budget

    @pytest.mark.parametrize("case, iterations, why", [
        ("converged", 14, None),
        ("budget", 5, "Anderson mixing missed delta within 5 iterations"),
        ("growth", 5, "Anderson residual grew past 10 times its best"),
        ("patience", 78, "Anderson residual stalled for 50 iterations"),
        ("no-mass", 2, "Anderson update 2 left no positive finite mass"),
        ("degenerate", 3,
         "all utilities nonpositive under the vanishing-noise limit at Anderson iterate 3")])
    def test_every_anderson_exit_returns_its_reason(self, monkeypatch, case, iterations, why):
        # the give-up rule fires only when asked for: by growth at the limit
        # with kappa 0.1, by patience where delta 1e-300 leaves the residual
        # stagnating at roundoff
        g = Grid(16)
        cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-9)
        model = CompetitionUtility(g, CompetitionParams())
        budget = 5 if case == "budget" else ANDERSON_MAX_ITERATIONS
        if case in ("budget", "patience"):
            cfg = replace(cfg, delta=1e-300)
        elif case == "growth":
            run = load_run_config(FITTED)
            cfg = replace(run.dynamic, kappa=0.1, eta=LIMIT_NOISE)
            model = CompetitionUtility(cfg.grid, run.utility)
        elif case == "no-mass":
            monkeypatch.setattr(dynamics.np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan))
        elif case == "degenerate":
            cfg, model = replace(cfg, eta=LIMIT_NOISE), FlickeringUtility(g, bad={4})
        start = uniform(cfg.grid).mass
        [(mass, k, reason)] = dynamics._anderson(DynamicBatch([cfg]), model, start[None],
                                                 ANDERSON_BETA, [budget],
                                                 give_up=case in ("growth", "patience"))
        assert (mass is None, k, reason) == (why is not None, iterations, why)
        if mass is not None:
            residual = weights_row(cfg, model.values(mass)) - mass
            assert cfg.grid.n * np.abs(residual).max() <= cfg.delta
        if case == "budget":  # the lstsq reference stops alike
            assert anderson_lstsq(cfg, model, start, ANDERSON_BETA, budget) == (None, k, why)

    def test_stalled_large_weight_gives_the_small_weights_state(self):
        # at the limit with kappa 0.1 the large weight gives up; the state is
        # then bit for bit that of the small weight alone, from uniform
        run = load_run_config(FITTED)
        cfg = replace(run.dynamic, kappa=0.1, eta=LIMIT_NOISE)
        model = CompetitionUtility(cfg.grid, run.utility)
        batch, start = DynamicBatch([cfg]), uniform(cfg.grid).mass[None]
        [(gave_up, large, why)] = dynamics._anderson(batch, model, start, ANDERSON_BETA,
                                                     [ANDERSON_MAX_ITERATIONS], give_up=True)
        [(mass, small, _)] = dynamics._anderson(batch, model, start, ANDERSON_SAFE_BETA,
                                                [ANDERSON_MAX_ITERATIONS])
        [solution] = solve_stationary(batch, model)
        assert gave_up is None and large > 0
        assert solution.solver == "anderson"
        assert solution.fallback == why == "Anderson residual grew past 10 times its best"
        assert solution.steps == large + small
        assert np.array_equal(solution.final_measure.mass, mass)

    def test_update_without_finite_mass_falls_back(self, monkeypatch):
        g = Grid(16)
        cfg = DynamicConfig(1.0, 0.05, g, dt=0.01, delta=1e-9, max_steps=100_000)
        model = CompetitionUtility(g, CompetitionParams())
        monkeypatch.setattr(dynamics.np.linalg, "solve", lambda a, b: np.full(b.shape, np.nan))
        [solution] = solve_stationary(DynamicBatch([cfg]), model)
        assert solution.solver == "euler"
        # the second update of each weight is NaN, and each stage says so
        why = "Anderson update 2 left no positive finite mass"
        assert solution.fallback == f"{why}; {why}"
        assert solution.stationary

    @pytest.mark.parametrize("n", [64, 501])
    def test_matches_lstsq_reference_at_fit_box_corners(self, n):
        run = load_run_config(FIT_AB)
        cfg = replace(run.dynamic, grid=Grid(n))
        for a, b in itertools.product(run.fit.bounds["a"], run.fit.bounds["b"]):
            model = CompetitionUtility(cfg.grid, replace(run.utility, a=a, b=b))
            [solution] = solve_stationary(DynamicBatch([cfg]), model)
            mass, iterations, _ = anderson_lstsq(cfg, model, uniform(cfg.grid).mass,
                                                 ANDERSON_BETA, ANDERSON_MAX_ITERATIONS)
            assert solution.solver == "anderson"
            assert abs(solution.steps - iterations) <= 10
            np.testing.assert_allclose(pdf_values(solution.final_measure),
                                       pdf_values(GridMeasure(cfg.grid, mass)), rtol=0, atol=1e-10)

    def test_singular_gram_solves_by_lstsq(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(dynamics.np.linalg, "solve", singular)
        calls = count_lstsq(monkeypatch)
        g = Grid(64)
        cfg = DynamicConfig(1.0, 0.01, g, dt=0.01, delta=1e-10, max_steps=100_000)
        model = CompetitionUtility(g, CompetitionParams())
        [solution] = solve_stationary(DynamicBatch([cfg]), model)
        assert solution.solver == "anderson" and solution.fallback is None
        assert len(calls) == solution.steps - 1  # every update but the first
        mass = solution.final_measure.mass
        assert g.n * np.max(np.abs(weights_row(cfg, model.values(mass)) - mass)) <= cfg.delta

    def test_first_fit_level_needs_no_lstsq(self, monkeypatch):
        calls = count_lstsq(monkeypatch)
        run = load_run_config(FIT_AB)
        target = empirical_stats(load_catches(bundled_catches_path()))
        result = fit_search(replace(run.fit, levels=0), target, run.dynamic, run.utility)
        assert result.evaluation_count == 25
        assert all(error is None for _, _, error in result.evaluations)
        assert calls == []

    def test_degenerate_large_weight_iterate_hands_over(self):
        # the fourth evaluation, iterate 3 of the large weight, degenerates;
        # the small weight then runs from uniform as if alone
        g = Grid(32)
        cfg = DynamicConfig(1.0, LIMIT_NOISE, g, dt=0.01, delta=1e-9, max_steps=100_000)
        batch = DynamicBatch([cfg])
        [solution] = solve_stationary(batch, FlickeringUtility(g, bad={4}))
        [(mass, small, why)] = dynamics._anderson(batch, FlickeringUtility(g, bad=()),
                                                  uniform(g).mass[None], ANDERSON_SAFE_BETA,
                                                  [ANDERSON_MAX_ITERATIONS])
        assert why is None
        assert solution.solver == "anderson"
        assert solution.fallback == ("all utilities nonpositive under the vanishing-noise limit "
                                     "at Anderson iterate 3")
        assert solution.steps == 3 + small
        assert np.array_equal(solution.final_measure.mass, mass)

    def test_degeneracy_in_both_weights_falls_back(self):
        # iterate 3 of each weight degenerates (evaluations 4 and 8), so
        # Euler runs, from the ninth evaluation on
        g = Grid(32)
        cfg = DynamicConfig(1.0, LIMIT_NOISE, g, dt=0.01, delta=1e-9, max_steps=100_000)
        [solution] = solve_stationary(DynamicBatch([cfg]), FlickeringUtility(g, bad={4, 8}))
        assert solution.solver == "euler"
        assert "nonpositive" in solution.fallback and "Anderson iterate 3" in solution.fallback
        assert solution.stationary

    def test_degenerate_start_raises_from_euler(self):
        # the batch holds the error its row's Euler fallback raised
        g = Grid(8)
        cfg = DynamicConfig(1.0, LIMIT_NOISE, g, max_steps=10)
        model = BilinearUtility(g, lambda x, y: -1.0 - x * y)
        [outcome] = solve_stationary(DynamicBatch([cfg]), model)
        assert isinstance(outcome, DegenerateWeightsError) and outcome.step == 0

    def test_nonfinite_utility_rejected(self):
        class NaNUtility:
            def values(self, mass):
                return np.full_like(mass, np.nan)

            def rows(self, index):
                return self

        g = Grid(8)
        cfg = DynamicConfig(1.0, 0.5, g, dt=0.25, max_steps=10)
        with pytest.raises(ValueError, match="utility vector must be finite"):
            solve_stationary(DynamicBatch([cfg]), NaNUtility())

    @pytest.mark.parametrize("eta", [0.01, LIMIT_NOISE], ids=["eta-0.01", "limit"])
    def test_state_does_not_depend_on_the_start(self, eta):
        # sparse random starts, half of them floored at 1e-3, all reach the
        # state the solver reaches from uniform, at the large weight alone
        run = load_run_config(FITTED)
        cfg = replace(run.dynamic, kappa=1.0, eta=eta)
        model = CompetitionUtility(cfg.grid, run.utility)
        batch = DynamicBatch([cfg])
        [reference] = solve_stationary(batch, model)
        rng = np.random.default_rng(20261019)
        for k in range(10):
            start = rng.dirichlet(np.full(cfg.grid.n, 0.05))
            if k % 2:
                start = np.maximum(start, 1e-3)
                start /= start.sum()
            [(mass, _, why)] = dynamics._anderson(batch, model, start[None], ANDERSON_BETA,
                                                  [ANDERSON_MAX_ITERATIONS], give_up=True)
            assert why is None, k
            assert np.abs(mass - reference.final_measure.mass).sum() <= 1e-10, k

    def test_rejects_empty_budget(self):
        g = Grid(8)
        with pytest.raises(ValueError, match="max_steps"):
            DynamicConfig(1.0, 0.5, g, max_steps=0)


def assert_rows_match_single_runs(configs, params, grid=None):
    """solve_stationary on the batch of `configs`, on one model with a row
    of `params` per config (one shared CompetitionParams for all), against
    solve_stationary_single of each row on its own model: the same bits,
    steps, solver, fallback and stationarity. Returns the outcomes."""
    grid = grid or configs[0].grid
    rows = params if isinstance(params, list) else [params] * len(configs)
    outcomes = solve_stationary(DynamicBatch(configs), CompetitionUtility(grid, params))
    assert len(outcomes) == len(configs)
    for i, (config, point, outcome) in enumerate(zip(configs, rows, outcomes)):
        single = solve_stationary_single(config, CompetitionUtility(grid, point))
        assert (outcome.steps, outcome.solver, outcome.fallback, outcome.stationary) == (
            single.steps, single.solver, single.fallback, single.stationary), i
        assert np.array_equal(outcome.final_measure.mass, single.final_measure.mass), i
    return outcomes


class TestAndersonStack:
    def test_first_fit_level_rows_match_single_runs(self):
        # the 25 points of the first configs/fit_ab.json level, as the fit
        # solves them: one stack on one model whose a and b are per row
        run = load_run_config(FIT_AB)
        axes = [np.linspace(*run.fit.bounds[p], run.fit.points_per_dim) for p in ("a", "b")]
        params = [replace(run.utility, a=float(a), b=float(b))
                  for a, b in itertools.product(*axes)]
        outcomes = assert_rows_match_single_runs([run.dynamic] * len(params), params)
        assert {o.solver for o in outcomes} == {"anderson"}
        assert all(o.fallback is None for o in outcomes)
        assert 26 <= min(o.steps for o in outcomes) < max(o.steps for o in outcomes) <= 60

    def test_sweep_kappas_match_single_runs(self):
        # sweep-kappa's default kappas on configs/fitted.json, on one shared model
        run = load_run_config(FITTED)
        configs = [replace(run.dynamic, kappa=kappa) for kappa in (0.0, 0.1, 0.5, 1.0)]
        outcomes = assert_rows_match_single_runs(configs, run.utility)
        assert [o.steps for o in outcomes] == [60, 60, 46, 48]

    def test_rows_that_give_up_leave_the_converging_rows(self, monkeypatch):
        # kappa 0 at eta 1e-3 and kappa 0.1 in the limit give up at the
        # large weight and finish at the small one as one stack of two (627
        # and 244 iterations in all), while the other rows converge in the
        # first stack
        anderson, stacks = dynamics._anderson, []

        def counted(batch, *args, **kwargs):
            stacks.append(len(batch.configs))
            return anderson(batch, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_anderson", counted)
        run = load_run_config(FITTED)
        points = [(1.0, 0.01), (0.0, 1e-3), (0.5, 0.01), (0.1, LIMIT_NOISE), (1.0, LIMIT_NOISE)]
        configs = [replace(run.dynamic, kappa=kappa, eta=eta) for kappa, eta in points]
        outcomes = assert_rows_match_single_runs(configs, run.utility)
        assert stacks == [5, 2]
        assert [o.steps for o in outcomes] == [48, 627, 46, 244, 60]
        gave_up = "Anderson residual grew past 10 times its best"
        assert [o.fallback for o in outcomes] == [None, gave_up, None, gave_up, None]

    def test_row_degenerate_at_the_start_leaves_healthy_rows(self):
        # at b = 0 every limit utility is -a x^2 < 0, so that row degenerates
        # at iterate 0 of both weights and its Euler fallback raises at step
        # 0; the batch holds that error, which a single run raises, and the
        # other rows, a limit row among them, solve as if alone
        grid = Grid(50)
        limit = DynamicConfig(1.0, LIMIT_NOISE, grid)
        configs = [limit, limit, replace(limit, eta=0.01)]
        params = [CompetitionParams(a=1.0, b=b, d=0.0) for b in (0.1, 0.0, 0.1)]
        outcomes = solve_stationary(DynamicBatch(configs), CompetitionUtility(grid, params))
        with pytest.raises(DegenerateWeightsError) as single:
            solve_stationary_single(limit, CompetitionUtility(grid, params[1]))
        assert isinstance(outcomes[1], DegenerateWeightsError)
        assert repr(outcomes[1]) == repr(single.value) == (
            "DegenerateWeightsError('all utilities nonpositive under the vanishing-noise "
            "limit at step 0')")
        for i in (0, 2):
            [alone] = assert_rows_match_single_runs([configs[i]], [params[i]])
            assert (outcomes[i].steps, outcomes[i].fallback) == (alone.steps, alone.fallback)
            assert np.array_equal(outcomes[i].final_measure.mass, alone.final_measure.mass)

    def test_row_that_misses_its_budget(self):
        # each row has its own budget and delta: the first runs out of its
        # 5 iterations and falls back to Euler; the third stalls against
        # delta 1e-300 at iteration 78, leaves the stack, and misses its
        # budget of 100 at the small weight
        grid = Grid(16)
        base = DynamicConfig(1.0, 0.05, grid, dt=0.01, delta=1e-9, max_steps=100_000)
        configs = [replace(base, max_steps=5), base, replace(base, delta=1e-300, max_steps=100),
                   replace(base, kappa=0.5)]
        outcomes = assert_rows_match_single_runs(configs, CompetitionParams())
        assert [o.solver for o in outcomes] == ["euler", "anderson", "euler", "anderson"]
        assert outcomes[0].fallback == "Anderson mixing missed delta within 5 iterations"
        assert outcomes[2].fallback == ("Anderson residual stalled for 50 iterations; "
                                        "Anderson mixing missed delta within 100 iterations")

    def test_per_row_fft_spectra(self):
        # c = 1.5 with a wide ramp: each row has its own reward spectrum,
        # cut with the stack as rows leave
        grid = Grid(64)
        config = DynamicConfig(0.5, 0.02, grid, dt=0.01, delta=1e-10)
        params = [CompetitionParams(a=a, b=b, c=1.5, epsilon=0.05)
                  for a, b in ((0.2, 0.15), (0.35, 0.3), (0.27, 0.23), (0.3, 0.1))]
        outcomes = assert_rows_match_single_runs([config] * 4, params)
        assert len({o.steps for o in outcomes}) > 1

    def test_singular_stack_solves_row_by_row(self, monkeypatch):
        # a stacked Gram solve that fails is redone row by row, with the
        # same bits as the stacked solve
        solve = np.linalg.solve

        def no_stacks(a, b):
            if a.ndim == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(dynamics.np.linalg, "solve", no_stacks)
        run = load_run_config(FITTED)
        configs = [replace(run.dynamic, kappa=kappa) for kappa in (0.5, 1.0)]
        assert_rows_match_single_runs(configs, run.utility)

    def test_row_without_finite_mass_leaves_the_stack(self, monkeypatch):
        # the stacked Gram solve of the second update is NaN in row 0 alone:
        # that row leaves the stack and finishes at the small weight, and
        # row 1 goes on as if alone
        solve, calls = np.linalg.solve, []

        def nan_row_0(a, b):
            out = solve(a, b)
            if a.ndim == 3:
                calls.append(len(a))
                if len(calls) == 1:
                    out[0] = np.nan
            return out

        monkeypatch.setattr(dynamics.np.linalg, "solve", nan_row_0)
        run = load_run_config(FITTED)
        configs = [replace(run.dynamic, kappa=kappa) for kappa in (0.5, 1.0)]
        first, second = solve_stationary(DynamicBatch(configs),
                                         CompetitionUtility(run.dynamic.grid, run.utility))
        monkeypatch.setattr(dynamics.np.linalg, "solve", solve)
        model = CompetitionUtility(run.dynamic.grid, run.utility)
        alone = solve_stationary_single(configs[1], model)
        assert calls[:2] == [2, 1]
        assert first.fallback == "Anderson update 2 left no positive finite mass"
        assert first.solver == "anderson" and first.stationary
        assert (second.steps, second.fallback) == (alone.steps, alone.fallback)
        assert np.array_equal(second.final_measure.mass, alone.final_measure.mass)


class TestEtaConvergenceTable:
    def test_bookkeeping_and_rates(self):
        g = Grid(64)
        base = DynamicConfig(1.0, 0.01, g, dt=0.01)
        model = CompetitionUtility(g, CompetitionParams())
        table = eta_convergence_table(base, model, [0.1, 0.01], [0.5, 1.0])
        assert list(table) == ["eta", "time", "error", "rate"]
        assert table["eta"] == [0.1, 0.1, 0.01, 0.01] and table["time"] == [0.5, 1.0, 0.5, 1.0]
        assert [rate is None for rate in table["rate"]] == [True, True, False, False]
        assert len(table["error"]) == 4 and all(error > 0 for error in table["error"])

    def test_single_eta_has_no_rates(self):
        g = Grid(32)
        base = DynamicConfig(1.0, 0.05, g, dt=0.01)
        model = CompetitionUtility(g, CompetitionParams())
        table = eta_convergence_table(base, model, [0.05], [0.5])
        assert table["eta"] == [0.05] and table["time"] == [0.5] and table["rate"] == [None]
        assert len(table["error"]) == 1

    def test_etas_in_any_order_without_repeats(self):
        g = Grid(16)
        base = DynamicConfig(1.0, 0.05, g, dt=0.01)
        model = CompetitionUtility(g, CompetitionParams())  # steps a stack
        for etas in ([], [0.1, 0.01, 0.1], [0.01, 0.01]):
            with pytest.raises(ConfigError, match="etas: one or more distinct numbers required"):
                eta_convergence_table(base, model, etas, [0.5])
        decreasing = eta_convergence_table(base, model, [0.1, 0.01, 1e-3], [0.5, 1.0])
        assert decreasing["eta"] == [0.1, 0.1, 0.01, 0.01, 1e-3, 1e-3]
        for etas in ([1e-3, 0.01, 0.1], [0.01, 1e-3, 0.1]):
            assert eta_convergence_table(base, model, etas, [0.5, 1.0]) == decreasing

    @pytest.mark.parametrize("n, dt, times", [(64, 0.01, [0.5, 1.0]),
                                              (STACK_CELLS // 2 - 1, 0.1, [0.0, 0.3, 0.5])])
    def test_matches_per_eta_run_until_reference(self, n, dt, times):
        # the first case steps all five rows as one stack; the second holds
        # two rows per stack, so the limit row and the etas span three stacks
        g = Grid(n)
        base = DynamicConfig(1.0, 0.01, g, dt=dt)
        model = CompetitionUtility(g, CompetitionParams())
        etas = [0.1, 0.01, 1e-3, 1e-4]
        table = eta_convergence_table(base, model, etas, times)
        reference = per_eta_reference(base, model, etas, times)
        assert dict(zip(zip(table["eta"], table["time"]), table["error"])) == reference

    def test_limit_row_degenerating_mid_run_keeps_its_step(self):
        g = Grid(16)
        base = DynamicConfig(1.0, 0.1, g, dt=0.1)
        with pytest.raises(DegenerateWeightsError) as single:
            run_row(DynamicConfig(1.0, LIMIT_NOISE, g, dt=0.1), ChasingUtility(g), [4.0])
        with pytest.raises(DegenerateWeightsError) as batched:
            eta_convergence_table(base, ChasingUtility(g), [0.1, 0.01], [4.0])
        assert single.value.step == batched.value.step == 25

    def test_nan_in_one_row_stops_the_table(self):
        g = Grid(16)
        base = DynamicConfig(1.0, 0.05, g, dt=0.1)
        with pytest.raises(ValueError, match="utility vector must be finite"):
            eta_convergence_table(base, NaNRowUtility(g, row=2), [0.1, 0.01, 1e-3], [1.0])

    def test_error_shrinks_with_eta(self):
        g = Grid(64)
        base = DynamicConfig(1.0, 0.01, g, dt=0.01)
        model = CompetitionUtility(g, CompetitionParams())
        errors = eta_convergence_table(base, model, [0.1, 0.01, 0.001], [1.0])["error"]
        assert errors[0] > errors[1] > errors[2]


def test_oracles_import_no_private_library_name():
    # reference code must not lean on the internals it checks
    tree = ast.parse((Path(__file__).with_name("oracles.py")).read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("rational_logit")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
