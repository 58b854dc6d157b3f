from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import fit_objective
from rational_logit import calibration
from rational_logit.calibration import FitSpec, empirical_pdf, empirical_stats, fit_search
from rational_logit.dataio import bundled_catches_path, load_catches, load_run_config
from rational_logit.dynamics import (LIMIT_NOISE, DynamicConfig, StationarySolution,
                                     run_to_stationary)
from rational_logit.measures import Grid, mean_and_std, uniform
from rational_logit.utility import CompetitionParams, CompetitionUtility

# coarse solver settings: keep every fit evaluation around tens of ms
COARSE_GRID = Grid(100)
COARSE_DT = 0.01
COARSE_DELTA = 1e-9
COARSE_BASE = DynamicConfig(1.0, 0.01, COARSE_GRID, COARSE_DT, COARSE_DELTA, max_steps=200_000)
SHIPPED_FIT = Path(__file__).resolve().parents[1] / "configs" / "fit_ab.json"


def count_solves(monkeypatch) -> list:
    """The configs of every stationary solve the search runs from now on,
    one per row of each batch it solves."""
    solves, solve = [], calibration.solve_stationary

    def counted(batch, model):
        solves.extend(batch.configs)
        return solve(batch, model)

    monkeypatch.setattr(calibration, "solve_stationary", counted)
    return solves


@pytest.fixture(scope="module")
def table_sample():
    return load_catches(bundled_catches_path())


def coarse_moments(params, eta=0.01, kappa=1.0):
    config = DynamicConfig(kappa, eta, COARSE_GRID, COARSE_DT, COARSE_DELTA, max_steps=200_000)
    model = CompetitionUtility(COARSE_GRID, params)
    traj = run_to_stationary(config, model)
    return mean_and_std(traj.final_measure)


class TestEmpiricalStats:
    def test_dataset_mean(self, table_sample):
        mean, _ = empirical_stats(table_sample)
        assert mean == pytest.approx(0.32471, abs=5e-5)

    def test_dataset_std(self, table_sample):
        # population convention: this is what reproduces the reported value
        _, std = empirical_stats(table_sample)
        assert std == pytest.approx(0.30352, abs=5e-4)

    def test_single_year(self):
        mean, std = empirical_stats(np.array([0.5, 1.0]))
        assert mean == 0.75 and std == 0.25

    def test_permutation_invariant(self, table_sample):
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(table_sample)
        np.testing.assert_allclose(empirical_stats(shuffled),
                                   empirical_stats(table_sample), rtol=1e-12)

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            empirical_stats(np.array([]))


class TestEmpiricalPdf:
    def test_all_at_one(self):
        np.testing.assert_array_equal(empirical_pdf(np.ones(5), 10),
                                      [0.0] * 9 + [10.0])

    def test_uniform_synthetic(self):
        values = (np.arange(1000) + 0.5) / 1000
        pdf = empirical_pdf(values, 10)
        np.testing.assert_allclose(pdf, 1.0, atol=1e-12)

    def test_integrates_to_one(self, table_sample):
        pdf = empirical_pdf(table_sample, 20)
        assert pdf.sum() / 20 == pytest.approx(1.0, abs=1e-12)

    def test_dataset_is_bimodal(self, table_sample):
        pdf = empirical_pdf(table_sample, 20)
        middle = pdf[8:12].mean()
        assert pdf[:3].max() > middle
        assert pdf[-1] > middle

    def test_rejects_few_bins(self):
        with pytest.raises(ValueError):
            empirical_pdf(np.array([0.5]), 1)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="empty sample"):
            empirical_pdf(np.array([]))

    def test_rejects_out_of_range(self):
        for values in ([0.5, 1.2], [-0.1, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                empirical_pdf(np.array(values))


class TestFitObjective:
    def test_zero_at_matched_targets(self):
        params = CompetitionParams()
        target = coarse_moments(params)
        config = DynamicConfig(1.0, 0.01, COARSE_GRID, COARSE_DT, COARSE_DELTA)
        assert fit_objective(params, config, target)[0] == pytest.approx(0.0, abs=1e-10)

    def test_increases_away_from_optimum(self):
        base = CompetitionParams()
        target = coarse_moments(base)
        config = DynamicConfig(1.0, 0.01, COARSE_GRID, COARSE_DT, COARSE_DELTA)
        obj_at = fit_objective(base, config, target)[0]
        obj_doubled = fit_objective(CompetitionParams(a=2 * base.a), config, target)[0]
        assert obj_doubled > obj_at

    def test_nonstationary_reported_distinctly(self):
        # a solve that misses delta comes back as it is, and the search
        # records its point as a failure: on the coarse grid kappa 0 at
        # eta 1e-3 needs more than 300 iterations, kappa 1 about 50
        config = DynamicConfig(1.0, 0.01, COARSE_GRID, COARSE_DT, 1e-300, max_steps=5)
        _, _, solution = fit_objective(CompetitionParams(), config, (0.3, 0.3))
        assert not solution.stationary and solution.steps == 5
        base = DynamicConfig(1.0, 1e-3, COARSE_GRID, COARSE_DT, COARSE_DELTA, max_steps=300)
        _, _, missed = fit_objective(CompetitionParams(), replace(base, kappa=0.0), (0.3, 0.3))
        assert not missed.stationary
        spec = FitSpec(bounds={"kappa": (0.0, 1.0)}, levels=0, points_per_dim=2)
        result = fit_search(spec, (0.3, 0.3), base, CompetitionParams())
        assert [(point, error) for point, _, error in result.evaluations] == [
            ({"kappa": 0.0}, f"no stationary state within 300 steps ({missed.fallback})"),
            ({"kappa": 1.0}, None)]
        assert result.evaluations[0][1] is None and result.best["kappa"] == 1.0


class TestFitSearch:
    def test_recovers_generating_parameter(self):
        # self-consistency: targets generated at a = 0.27 are recovered
        # within the final grid resolution
        target = coarse_moments(CompetitionParams(a=0.27))
        spec = FitSpec(bounds={"a": (0.1, 0.5)}, levels=2, points_per_dim=5)
        result = fit_search(spec, target, COARSE_BASE, CompetitionParams())
        assert result.best["a"] == pytest.approx(0.27, abs=0.03)
        assert result.objective <= 5e-4

    def test_pure_grid_search(self):
        target = (0.3, 0.3)
        spec = FitSpec(bounds={"a": (0.2, 0.4)}, levels=0, points_per_dim=3)
        result = fit_search(spec, target, COARSE_BASE, CompetitionParams())
        assert result.evaluation_count == 3
        assert min(abs(result.best["a"] - v) for v in (0.2, 0.3, 0.4)) < 1e-12

    def test_stays_inside_bounds_and_trace_consistent(self):
        target = coarse_moments(CompetitionParams())
        spec = FitSpec(bounds={"a": (0.2, 0.35), "b": (0.15, 0.3)},
                       levels=1, points_per_dim=3)
        result = fit_search(spec, target, COARSE_BASE, CompetitionParams())
        assert 0.2 <= result.best["a"] <= 0.35
        assert 0.15 <= result.best["b"] <= 0.3
        objectives = [obj for _, obj, err in result.evaluations if err is None]
        assert result.objective <= min(objectives) + 1e-15

    def test_empty_free_set_single_evaluation(self):
        # an empty box is the base point, solved once at any number of levels
        target = (0.3, 0.3)
        for spec in (FitSpec(levels=0), FitSpec()):
            result = fit_search(spec, target, COARSE_BASE, CompetitionParams())
            assert result.evaluation_count == 1
            assert result.best == {"a": 0.27, "b": 0.23, "eta": 0.01, "kappa": 1.0}

    def test_validates_bounds(self):
        with pytest.raises(ValueError, match=r"bounds\.a: lo < hi required"):
            FitSpec(bounds={"a": (0.5, 0.5)})
        with pytest.raises(ValueError, match=r"bounds\.zzz: unknown key"):
            FitSpec(bounds={"zzz": (0.0, 1.0)})

    def test_rejects_negative_a_b_bounds(self):
        # CompetitionParams states the range; the search meets it before any solve
        for name in ("a", "b"):
            spec = FitSpec(bounds={name: (-0.1, 0.3)}, levels=0)
            with pytest.raises(ValueError, match=rf"{name}: number >= 0 required \(got -0\.1\)"):
                fit_search(spec, (0.3, 0.3), COARSE_BASE, CompetitionParams())

    @pytest.mark.parametrize("bounds", [{"a": (0.1,)}, {"a": 0.2}])
    def test_rejects_missing_or_malformed_bounds(self, bounds):
        with pytest.raises(ValueError, match=r"bounds\.a: \[lo, hi\] pair required"):
            FitSpec(bounds=bounds)

    def test_rejects_zero_kappa_under_limit(self, monkeypatch):
        # DynamicConfig rejects the kappa = 0 point of the limit equation,
        # and a level builds all its points before it solves any
        evaluated = []

        def record(batch, model):
            evaluated.extend(config.kappa for config in batch.configs)
            return [StationarySolution(uniform(batch.grid), True, 0, "anderson")
                    for _ in batch.configs]

        monkeypatch.setattr(calibration, "solve_stationary", record)
        limit = DynamicConfig(1.0, LIMIT_NOISE, COARSE_GRID, COARSE_DT, COARSE_DELTA)
        for free, kappas in [(("kappa",), [0.1, 1.0]), (("a", "kappa"), [0.1, 1.0, 0.1, 1.0])]:
            bounds = {p: {"a": (0.2, 0.3), "kappa": (0.0, 1.0)}[p] for p in free}
            spec = FitSpec(bounds=bounds, levels=0, points_per_dim=2)
            with pytest.raises(ValueError, match="limit"):
                fit_search(spec, (0.3, 0.3), limit, CompetitionParams())
            assert evaluated == []
            spec = FitSpec(bounds={**bounds, "kappa": (0.1, 1.0)}, levels=0,
                           points_per_dim=2)
            fit_search(spec, (0.3, 0.3), limit, CompetitionParams())
            assert evaluated == kappas
            evaluated.clear()
        # a box past a type's range, at either end, is met before any solve too
        for name, pair, message in [("a", (-0.1, 0.3), "a: number >= 0 required"),
                                    ("kappa", (0.5, 1.5), r"kappa: number in \[0, 1\] required")]:
            spec = FitSpec(bounds={name: pair}, levels=0, points_per_dim=2)
            with pytest.raises(ValueError, match=message):
                fit_search(spec, (0.3, 0.3), limit, CompetitionParams())
            assert evaluated == []

    def test_empty_free_set_is_the_base_run(self):
        # every setting of the base run reaches the point, bit for bit
        base = DynamicConfig(0.5, 0.02, COARSE_GRID, 0.02, 1e-8, max_steps=50_000)
        params = CompetitionParams(a=0.3, b=0.2, c=1.5, epsilon=0.03)
        target = (0.3, 0.3)
        result = fit_search(FitSpec(levels=0), target, base, params)
        assert result.objective == fit_objective(params, base, target)[0]
        assert result.best == {"a": 0.3, "b": 0.2, "eta": 0.02, "kappa": 0.5}

    def test_shipped_fit(self, table_sample, monkeypatch):
        # the full configs/fit_ab.json fit: three levels of 25 points at N = 500,
        # 11 of them bit-equal to a point of an earlier level and not solved again
        solves = count_solves(monkeypatch)
        run = load_run_config(SHIPPED_FIT)
        result = fit_search(run.fit, empirical_stats(table_sample), run.dynamic, run.utility)
        assert (result.best["a"], result.best["b"]) == pytest.approx((0.265625, 0.225),
                                                                     rel=0, abs=1e-15)
        assert result.evaluation_count == 75 and len(solves) == 64
        assert all(error is None for _, _, error in result.evaluations)
        assert result.objective <= 1e-5
        outcomes = {}  # a repeated point repeats its first outcome
        for point, objective, _ in result.evaluations:
            assert outcomes.setdefault(tuple(point.items()), objective) == objective

    def test_reduced_fit_solves_each_point_once(self, table_sample, monkeypatch):
        # the benchmark's reduced fit: one level of 2 x 2 points, all distinct
        solves = count_solves(monkeypatch)
        run = load_run_config(SHIPPED_FIT)
        spec = replace(run.fit, levels=0, points_per_dim=2)
        result = fit_search(spec, empirical_stats(table_sample), run.dynamic, run.utility)
        assert result.evaluation_count == 4 and len(solves) == 4

    def test_point_degenerate_at_the_start_is_recorded(self):
        # at b = 0 every utility is -a x < 0 under the limit, so the first
        # point degenerates at step 0 and the search goes on to b = 0.1
        spec = FitSpec(bounds={"b": [0.0, 0.1]}, levels=0, points_per_dim=2)
        base = DynamicConfig(1.0, LIMIT_NOISE, Grid(50))
        result = fit_search(spec, (0.3, 0.3), base, CompetitionParams(a=1.0, b=0.0, d=0.0))
        assert result.evaluations[0] == ({"b": 0.0}, None, "DegenerateWeightsError('all "
                                         "utilities nonpositive under the vanishing-noise "
                                         "limit at step 0')")
        [(point, objective, error)] = result.evaluations[1:]
        assert point == {"b": 0.1} and error is None and np.isfinite(objective)
        assert result.best["b"] == 0.1 and result.objective == objective

    def test_result_counts_points_by_solver(self):
        # the degenerate point has no solver and stopped short at the large
        # weight; the other is Anderson's at the large weight
        spec = FitSpec(bounds={"b": [0.0, 0.1]}, levels=0, points_per_dim=2)
        base = DynamicConfig(1.0, LIMIT_NOISE, Grid(50))
        result = fit_search(spec, (0.3, 0.3), base, CompetitionParams(a=1.0, b=0.0, d=0.0))
        assert (result.solvers, result.fallback) == ({"anderson": 1}, 1)

    def test_all_failures_reported(self):
        spec = FitSpec(bounds={"a": (0.1, 0.5)}, levels=0, points_per_dim=2)
        base = DynamicConfig(1.0, 0.01, COARSE_GRID, COARSE_DT, 1e-300, max_steps=1)
        with pytest.raises(RuntimeError, match="every evaluation failed"):
            fit_search(spec, (0.3, 0.3), base, CompetitionParams())
