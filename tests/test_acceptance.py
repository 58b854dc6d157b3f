"""End-to-end acceptance checks against the published reference values.

Each numbered test prints a single PASS/FAIL line (visible with `pytest -s`
or in the captured output of a failing run) and then asserts. The expensive
stationary runs at the fitted parameters are shared through module fixtures.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (BilinearUtility, d_e_kappa, e_kappa, euler_row, refine, run_row,
                     scaled_limit_residual, weights_row)
from rational_logit.calibration import empirical_stats
from rational_logit.dataio import bundled_catches_path, load_catches, load_run_config
from rational_logit.dynamics import (LIMIT_NOISE, DynamicBatch, DynamicConfig,
                                     StationarySolution, euler_step, eta_convergence_table,
                                     run_to_stationary, solve_stationary)
from rational_logit.kexp import log_e_kappa
from rational_logit.measures import (Grid, GridMeasure, mean_and_std, pdf_values, uniform,
                                     variational_distance)
from rational_logit.utility import CompetitionParams, CompetitionUtility

N = 500
DT = 0.001
DELTA = 1e-11
FITTED = CompetitionParams()  # a=0.27, b=0.23, c=1, d=1, alpha=0.2, epsilon=1/N
GRID = Grid(N)
FITTED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fitted.json"


def report(label, ok, detail=""):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip(),
          flush=True)
    assert ok, f"{label}: {detail}"


def smoothed_peak_count(pdf, window=5):
    """Local maxima of the moving-average-smoothed cell PDF sequence.

    Boundary cells count as peaks when they exceed their single neighbor.
    """
    s = np.convolve(pdf, np.ones(window) / window, mode="valid")
    left = np.concatenate(([-np.inf], s[:-1]))
    right = np.concatenate((s[1:], [-np.inf]))
    return int(np.sum((s > left) & (s > right)))


@pytest.fixture(scope="module")
def fitted_model():
    return CompetitionUtility(GRID, FITTED)


def stack_to_stationary(configs, model) -> list:
    """`run_to_stationary` of each config, stepped as the rows of one
    DynamicBatch: each row's solution is its post-step state at its own
    first step that meets its delta, looked for within its max_steps."""
    batch = DynamicBatch(configs)
    deltas = np.array([c.delta for c in configs])
    mass = np.repeat(uniform(batch.grid).mass[None, :], len(configs), axis=0)
    solutions = [None] * len(configs)
    for k in range(max(c.max_steps for c in configs)):
        nxt = euler_step(batch, model, mass)
        met = batch.grid.n * np.abs(nxt - mass).max(axis=1) <= deltas
        for row in np.flatnonzero(met):
            if solutions[row] is None and k < configs[row].max_steps:
                solutions[row] = StationarySolution(GridMeasure(batch.grid, nxt[row]), True, k,
                                                    "euler")
        if all(solutions):
            break
        mass = nxt
    return solutions


@pytest.fixture(scope="module")
def stationary_runs(fitted_model):
    """Stationary states keyed by (kappa, eta); eta None is the limit mode.
    The seven Euler references step as one stack; `seconds` is its time."""
    combos = [(1.0, 0.01), (1.0, 0.05), (1.0, 0.1), (1.0, None),
              (0.0, 0.01), (0.1, 0.01), (0.5, 0.01)]
    configs = [DynamicConfig(kappa, eta, GRID, DT, DELTA) for kappa, eta in combos]
    t0 = time.monotonic()
    solutions = stack_to_stationary(configs, fitted_model)
    seconds = time.monotonic() - t0
    assert all(solutions)
    return {combo: (config, traj, seconds)
            for combo, config, traj in zip(combos, configs, solutions)}


def test_stationary_stack_matches_single_run(fitted_model, stationary_runs):
    # a row of the stack stops where run_to_stationary stops alone, bit for bit
    config, stacked, _ = stationary_runs[(1.0, 0.01)]
    single = run_to_stationary(config, fitted_model)
    assert single.stationary and stacked.steps == single.steps == 18_426
    assert np.array_equal(stacked.final_measure.mass, single.final_measure.mass)


@pytest.fixture(scope="module")
def eta_table(fitted_model):
    base = DynamicConfig(1.0, 0.01, GRID, DT, DELTA)
    return eta_convergence_table(base, fitted_model, [1e-1, 1e-2, 1e-3, 1e-4], [1.0, 10.0])


def test_criterion_1_dataset_statistics():
    sample = load_catches(bundled_catches_path())
    mean, std = empirical_stats(sample)
    ok = abs(mean - 0.32471) <= 5e-5 and abs(std - 0.30352) <= 5e-4
    report("1 dataset statistics", ok, f"mean={mean:.5f} std={std:.5f}")


def test_criterion_2_fitted_stationary_moments(stationary_runs):
    _, traj, seconds = stationary_runs[(1.0, 0.01)]
    mu = traj.final_measure
    x = GRID.midpoints
    mean = float(np.sum(x * mu.mass))
    std = float(np.sqrt(np.sum((x - mean) ** 2 * mu.mass)))
    peaks = smoothed_peak_count(pdf_values(mu))
    ok = (abs(mean - 0.32471) <= 0.003 and abs(std - 0.30377) <= 0.003
          and peaks == 2 and seconds < 120.0)
    report("2 fitted stationary moments", ok,
           f"mean={mean:.5f} std={std:.5f} peaks={peaks} seconds={seconds:.1f}")


def test_criterion_3_noise_convergence_table(eta_table):
    expected_error = {
        (1e-4, 1.0): 8.33e-5, (1e-3, 1.0): 3.74e-3,
        (1e-2, 1.0): 1.15e-1, (1e-1, 1.0): 1.03,
        (1e-4, 10.0): 2.44e-5, (1e-3, 10.0): 2.40e-3,
        (1e-2, 10.0): 1.73e-1, (1e-1, 10.0): 1.94,
    }
    expected_rate = {
        (1e-2, 1.0): 0.95, (1e-3, 1.0): 1.49, (1e-4, 1.0): 1.65,
        (1e-2, 10.0): 1.05, (1e-3, 10.0): 1.86, (1e-4, 10.0): 1.99,
    }
    keys = list(zip(eta_table["eta"], eta_table["time"]))
    errors, rates = dict(zip(keys, eta_table["error"])), dict(zip(keys, eta_table["rate"]))
    problems = []
    for key, ref in expected_error.items():
        err = errors[key]
        if abs(err - ref) > 0.20 * ref:
            problems.append(f"error{key}={err:.3g} want {ref:.3g}+-20%")
    for key, ref in expected_rate.items():
        rate = rates[key]
        if rate is None or abs(rate - ref) > 0.3:
            problems.append(f"rate{key}={rate} want {ref}+-0.3")
    report("3 noise convergence table", not problems, "; ".join(problems))


def test_criterion_4_kappa_sweep_endpoints(stationary_runs):
    endpoint = {}
    positive = True
    for kappa in (0.0, 0.1, 0.5, 1.0):
        _, traj, _ = stationary_runs[(kappa, 0.01)]
        pdf = pdf_values(traj.final_measure)
        endpoint[kappa] = pdf[-1]
        positive = positive and bool(np.all(pdf > 0.0))
    ok = (abs(endpoint[0.0] - 16.01) <= 0.05 * 16.01
          and abs(endpoint[0.1] - 14.60) <= 0.05 * 14.60
          and positive)
    report("4 kappa sweep endpoints", ok,
           f"pdf[-1](kappa=0)={endpoint[0.0]:.2f} "
           f"pdf[-1](kappa=0.1)={endpoint[0.1]:.2f} all_positive={positive}")


def test_criterion_5_property_suite(fitted_model, stationary_runs):
    problems = []
    rng = np.random.default_rng(20260823)

    # (a) simplex preservation over 10^4 Euler steps
    config = DynamicConfig(1.0, 0.01, GRID, DT, DELTA)
    mass = uniform(GRID).mass
    worst = 0.0
    for _ in range(10_000):
        mass = euler_row(config, fitted_model, mass)
        worst = max(worst, abs(float(mass.sum()) - 1.0))
        if mass.min() < 0.0:
            worst = max(worst, -float(mass.min()))
    if worst > 1e-12:
        problems.append(f"(a) simplex drift {worst:.2e}")

    # (b) kappa=0 weights equal the direct exponential softmax
    g = Grid(50)
    cfg0 = DynamicConfig(0.0, 0.1, g, DT, DELTA)
    worst = 0.0
    for _ in range(1000):
        u = rng.uniform(-3.0, 3.0, size=50)
        direct = np.exp(u / 0.1)
        direct /= direct.sum()
        worst = max(worst, float(np.max(np.abs(weights_row(cfg0, u) - direct))))
    if worst > 1e-12:
        problems.append(f"(b) softmax mismatch {worst:.2e}")

    # (c) reflection identity on 10^5 random (kappa, z), one kappa per z
    kappas = rng.uniform(0.0, 1.0, size=100_000)
    zs = rng.uniform(-50.0, 50.0, size=100_000)
    worst = float(np.abs(np.exp(log_e_kappa(kappas, zs)) * np.exp(log_e_kappa(kappas, -zs))
                         - 1.0).max())
    if worst > 1e-12:
        problems.append(f"(c) reflection defect {worst:.2e}")

    # (d) scaled limit residual / eta stays bounded as eta -> 0
    etas = np.logspace(-1, -5, 9)
    for kappa in (0.25, 0.5, 1.0):
        for u in np.linspace(0.1, 2.0, 20):
            ratios = np.array([scaled_limit_residual(kappa, e, u) / e for e in etas])
            if not np.all(np.isfinite(ratios)) or ratios.max() > ratios[0] + 1e-12 \
                    or ratios[0] > 10.0:
                problems.append(f"(d) unbounded ratio kappa={kappa} u={u:.2f}")
                break

    # (e) grid convergence toward an 800-cell reference at t=1
    f = lambda x, y: -0.27 * x ** 2 + 0.23 * np.abs(x - y)
    def solve(n_cells):
        g = Grid(n_cells)
        cfg = DynamicConfig(1.0, 0.05, g, DT, DELTA)
        model = BilinearUtility(g, f)
        return run_row(cfg, model, [1.0])[-1][1]
    ref = solve(800)
    dists = [variational_distance(refine(solve(n), 800 // n), ref)
             for n in (100, 200, 400)]
    if not (dists[0] > dists[1] > dists[2]):
        problems.append(f"(e) grid errors not decreasing: {dists}")

    # (f) derivative against central finite differences
    worst = 0.0
    for _ in range(2000):
        kappa = rng.uniform(0.0, 1.0)
        z = rng.uniform(-10.0, 10.0)
        h = 1e-5 * max(1.0, abs(z))
        fd = (e_kappa(kappa, z + h) - e_kappa(kappa, z - h)) / (2 * h)
        worst = max(worst, abs(d_e_kappa(kappa, z) - fd) / abs(fd))
    if worst > 1e-6:
        problems.append(f"(f) derivative mismatch {worst:.2e}")

    # (g) stationarity criterion still holds when re-evaluated at each
    # detected stationary state
    for (kappa, eta), (config, traj, _) in stationary_runs.items():
        mu = traj.final_measure
        nxt = euler_row(config, fitted_model, mu.mass)
        residual = N * float(np.max(np.abs(nxt - mu.mass)))
        if residual > DELTA:
            problems.append(f"(g) residual {residual:.2e} at kappa={kappa} eta={eta}")

    report("5 property suite", not problems, "; ".join(problems))


def test_criterion_6a_noise_flattens_profile(stationary_runs):
    peaks = {eta: float(pdf_values(stationary_runs[(1.0, eta)][1].final_measure).max())
             for eta in (0.01, 0.05, 0.1)}
    ok = peaks[0.01] > peaks[0.05] > peaks[0.1]
    report("6a noise flattens profile", ok,
           f"max pdf {peaks[0.01]:.3f} > {peaks[0.05]:.3f} > {peaks[0.1]:.3f}")


def test_criterion_6b_limit_proximity(stationary_runs):
    """The eta=0.01 stationary state lies within 0.05 of the limit state.

    The gap is measured in the variational norm (`variational_distance`,
    at most 2) because the solution is measure-valued and the library
    compares measures in that norm (criterion 5(e) does too); the paper
    abstract names no norm and no size for this gap. The PDF max-norm gap is
    reported but is not the gate: criterion 3 pins it at 0.173 +- 20% for
    this very comparison, at the limit PDF's right-edge peak of about 3.4.
    The distance to the limit must also shrink strictly as eta falls from
    0.1 through 0.05 to 0.01.
    """
    limit = stationary_runs[(1.0, None)][1].final_measure
    small = stationary_runs[(1.0, 0.01)][1]
    dist = {eta: variational_distance(limit, stationary_runs[(1.0, eta)][1].final_measure)
            for eta in (0.1, 0.05, 0.01)}
    max_gap = float(np.max(np.abs(pdf_values(limit) - pdf_values(small.final_measure))))
    ok = dist[0.01] <= 0.05 and dist[0.1] > dist[0.05] > dist[0.01]
    report("6b limit proximity", ok,
           f"variational gap {dist[0.01]:.4f} (bound 0.05); "
           f"{dist[0.1]:.4f} > {dist[0.05]:.4f} > {dist[0.01]:.4f} at "
           f"eta 0.1 > 0.05 > 0.01; max-norm gap {max_gap:.4f} (not gated); "
           f"eta=0.01 run stopped at step {small.steps}")


@pytest.mark.parametrize("eta", [0.01, LIMIT_NOISE], ids=["eta-0.01", "limit"])
def test_finite_difference_convergence_order(eta):
    """The stationary state of configs/fitted.json converges at first order
    in N. The reference at N = 32,000 is summed onto each coarser grid and
    the error is the variational (L1) distance there; errors must fall
    strictly with N, and each observed order log2(e_N / e_2N) must lie in
    [0.8, 1.2]."""
    run = load_run_config(FITTED_CONFIG)

    def solve(n_cells):
        config = replace(run.dynamic, eta=eta, grid=Grid(n_cells))
        [solution] = solve_stationary(DynamicBatch([config]),
                                      CompetitionUtility(config.grid, run.utility))
        assert solution.stationary
        return solution.final_measure.mass

    reference_n, sizes = 32_000, (250, 500, 1000, 2000)
    reference = solve(reference_n)
    errors = [float(np.abs(solve(n) - reference.reshape(n, reference_n // n).sum(axis=1)).sum())
              for n in sizes]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    ok = (all(a > b for a, b in zip(errors, errors[1:]))
          and all(0.8 <= order <= 1.2 for order in orders))
    report(f"finite-difference convergence, eta={'limit' if eta is None else eta}", ok,
           f"errors {', '.join(f'{e:.3e}' for e in errors)} at N={sizes}; "
           f"orders {', '.join(f'{o:.2f}' for o in orders)} (gate [0.8, 1.2])")


def test_vanishing_noise_error_monotone(eta_table):
    rows = list(zip(eta_table["eta"], eta_table["time"], eta_table["error"], eta_table["rate"]))
    for t in (1.0, 10.0):
        at_t = sorted(((eta, error, rate) for eta, when, error, rate in rows if when == t),
                      key=lambda r: r[0], reverse=True)
        errors = [error for _, error, _ in at_t]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert all(rate >= 0.9 for _, _, rate in at_t if rate is not None)


def test_parameter_continuity_triangle(fitted_model):
    def pdf_at_t1(eta):
        cfg = DynamicConfig(1.0, eta, GRID, DT, DELTA)
        return pdf_values(run_row(cfg, fitted_model, [1.0])[-1][1])
    p_limit = pdf_at_t1(None)
    p_big, p_small = pdf_at_t1(0.1), pdf_at_t1(0.01)
    gap = np.max(np.abs(p_big - p_small))
    via_limit = np.max(np.abs(p_big - p_limit)) + np.max(np.abs(p_small - p_limit))
    assert gap <= via_limit + 1e-12


def assert_matches_euler(config, model, euler_measure):
    """solve_stationary against an Euler stationary state of the same config:
    moments within 1e-9, PDF max-norm within 1e-7, and the per-step Euler
    residual of criterion 5(g) within delta at the returned point."""
    [solution] = solve_stationary(DynamicBatch([config]), model)
    assert solution.solver == "anderson" and solution.fallback is None
    assert solution.stationary
    mu = solution.final_measure
    np.testing.assert_allclose(mean_and_std(mu), mean_and_std(euler_measure), rtol=0, atol=1e-9)
    assert float(np.max(np.abs(pdf_values(mu) - pdf_values(euler_measure)))) <= 1e-7
    n = config.grid.n
    assert n * float(np.max(np.abs(euler_row(config, model, mu.mass) - mu.mass))) <= config.delta


def test_anderson_matches_euler_reference(fitted_model, stationary_runs):
    for config, traj, _ in stationary_runs.values():
        assert_matches_euler(config, fitted_model, traj.final_measure)


@pytest.mark.parametrize("n_cells", [64, 501])
@pytest.mark.parametrize("a, b", [(0.2, 0.15), (0.35, 0.3)])  # corners of fit_ab.json's box
def test_anderson_matches_euler_on_fit_box(n_cells, a, b):
    grid = Grid(n_cells)
    config = DynamicConfig(1.0, 0.01, grid, DT, DELTA)
    model = CompetitionUtility(grid, CompetitionParams(a=a, b=b))
    euler = run_to_stationary(config, model)
    assert euler.stationary
    assert_matches_euler(config, model, euler.final_measure)


GAVE_UP = "Anderson residual grew past 10 times its best"
STEP_COUNTS = [  # kappa, eta, solver, steps, fallback
    (1.0, 0.01, "anderson", 48, None),
    (0.0, 0.01, "anderson", 60, None),
    (0.1, 0.01, "anderson", 60, None),
    (0.5, 0.01, "anderson", 46, None),
    (1.0, LIMIT_NOISE, "anderson", 60, None),
    (0.0, 1e-3, "anderson", 627, GAVE_UP),
    (0.1, 1e-3, "anderson", 237, GAVE_UP),
    (0.1, LIMIT_NOISE, "anderson", 244, GAVE_UP),
    (0.0, 3e-4, "euler", 17_941, "Anderson residual stalled for 50 iterations; "
                                 "Anderson mixing missed delta within 2000 iterations")]


@pytest.mark.parametrize("kappa, eta, solver, steps, fallback", STEP_COUNTS,
                         ids=[f"kappa-{kappa:g}-eta-{'limit' if eta is None else f'{eta:g}'}"
                              for kappa, eta, *_ in STEP_COUNTS])
def test_stationary_step_counts(fitted_model, kappa, eta, solver, steps, fallback):
    """The solver, iteration count and fallback reason of solve_stationary on
    configs/fitted.json, pinned as part of its results: a change that moves
    one of them changes the work the solve does."""
    config = replace(load_run_config(FITTED_CONFIG).dynamic, kappa=kappa, eta=eta)
    [solution] = solve_stationary(DynamicBatch([config]), fitted_model)
    assert solution.stationary
    assert (solution.solver, solution.steps, solution.fallback) == (solver, steps, fallback)
