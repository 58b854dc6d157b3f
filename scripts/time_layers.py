#!/usr/bin/env python3
"""Time the competition utility, the weight map, one Euler step, a
stationary solve and the CSV writers across grid sizes.

For each N, prints the CompetitionUtility build time, the bytes the built
model holds (tracemalloc), the median microseconds of one `values(mass)`
call, one `weights` call and one `euler_step`, each on a batch of one row
(a (1, N) stack), and the seconds, iterations
and solver of `solve_stationary` on a batch of one from the uniform start
(median seconds of ANDERSON_RUNS solves), with `anderson_iteration_us`,
its microseconds per Anderson iteration (null if it fell back to Euler),
all at the fitted parameters (kappa = 1, eta = 0.01, dt = 1e-3, delta =
1e-11, and the DynamicConfig default budget max_steps = 10^6), as one JSON
document.
`limit_weights_us` is the same `weights` call under the vanishing-noise
limit (eta = LIMIT_NOISE) on the same utility, which has positive cells.
`batched_step_us` is one Euler step of the eta table's (5, N) stack: the
limit row and etas 0.1, 0.01, 1e-3, 1e-4 under one DynamicBatch.
`fit_level_s` is one fit level: the 25 points of the first
configs/fit_ab.json level (its a x b grid, its dynamic settings on the
grid of N cells) solved by `solve_stationary` as one batch on one model
with a and b per row (median seconds of ANDERSON_RUNS solves), and
`fit_level_iterations` the iterations of its rows, summed.
For N <= EULER_MAX_N it also times the Euler `run_to_stationary` reference
and gives its step count; both solvers return a StationarySolution.
`trajectory_csv_s` is one `write_trajectory_csv` of a 101-snapshot
trajectory (a batch-of-one `run_until` with a snapshot at every step to
t = 0.1, as `simulate` writes it),
with the file's bytes and the peak bytes Python allocated while writing it
(tracemalloc, a separate call); `measure_csv_us` is one `write_table` of
the final snapshot's midpoint, mass and PDF columns, as `stationary` writes
a measure, with its bytes. Run it against two source trees on
one machine to compare them:

    PYTHONPATH=src python scripts/time_layers.py --sizes 500,2000,8000
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from rational_logit import (LIMIT_NOISE, CompetitionParams, CompetitionUtility, DynamicBatch,
                            DynamicConfig, Grid, euler_step, load_run_config, pdf_values,
                            run_to_stationary, run_until, solve_stationary, uniform, weights,
                            write_table, write_trajectory_csv)

EULER_MAX_N = 2000  # about 18,000 steps per solve; larger grids take minutes
ANDERSON_RUNS = 5  # one solve at N=500 takes about 3 ms and varies by half from run to run
BATCH_ETAS = (LIMIT_NOISE, 0.1, 0.01, 1e-3, 1e-4)  # the eta table's rows
SNAPSHOT_TIMES = [k / 1000 for k in range(1, 101)]  # every step of dt = 1e-3 to t = 0.1
FIT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "fit_ab.json"


def median_us(fn, samples: int = 7, sample_seconds: float = 0.1) -> float:
    """Median over `samples` timed batches of the per-call microseconds."""
    calls, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < sample_seconds:
        fn()
        calls += 1
    per_call = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls * 1e6)
    return statistics.median(per_call)


def timed_solve(solve, config, model, runs: int = 1):
    """Median seconds of `runs` stationary solves and the result of the last."""
    seconds = []
    for _ in range(runs):
        t0 = time.perf_counter()
        result = solve(config, model)
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), result


def traced_peak_bytes(fn) -> int:
    """Peak bytes Python allocates during one call of `fn`."""
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def time_writers(config, model) -> dict:
    """Time the trajectory and measure CSV writers into a temporary directory."""
    [snapshots] = run_until(DynamicBatch([config]), model, SNAPSHOT_TIMES)
    mu = snapshots[-1][1]
    with tempfile.TemporaryDirectory() as tmp:
        traj_path, measure_path = Path(tmp, "trajectory.csv"), Path(tmp, "measure.csv")
        write_traj = lambda: write_trajectory_csv(traj_path, snapshots)
        write_measure = lambda: write_table(measure_path, {"x_mid": config.grid.midpoints,
                                                           "mass": mu.mass, "pdf": pdf_values(mu)})
        return {"trajectory_csv_s": median_us(write_traj, samples=3) / 1e6,
                "trajectory_csv_bytes": traj_path.stat().st_size,
                "trajectory_csv_peak_bytes": traced_peak_bytes(write_traj),
                "measure_csv_us": median_us(write_measure),
                "measure_csv_bytes": measure_path.stat().st_size}


def fit_level(grid: Grid):
    """The batch and the model of the first configs/fit_ab.json level on `grid`."""
    run = load_run_config(FIT_CONFIG)
    axes = [np.linspace(*run.fit.bounds[p], run.fit.points_per_dim) for p in ("a", "b")]
    params = [replace(run.utility, a=float(a), b=float(b)) for a in axes[0] for b in axes[1]]
    config = replace(run.dynamic, grid=grid)
    return DynamicBatch([config] * len(params)), CompetitionUtility(grid, params)


def time_size(n: int) -> dict:
    grid = Grid(n)
    tracemalloc.start()
    t0 = time.perf_counter()
    model = CompetitionUtility(grid, CompetitionParams())
    build_s = time.perf_counter() - t0
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    config = DynamicConfig(1.0, 0.01, grid)
    one, limit = DynamicBatch([config]), DynamicBatch([replace(config, eta=LIMIT_NOISE)])
    mass = uniform(grid).mass[None, :]
    u = model.values(mass)
    batch = DynamicBatch(replace(config, eta=eta) for eta in BATCH_ETAS)
    stack = np.repeat(mass, len(BATCH_ETAS), axis=0)
    row = {"build_s": build_s, "build_peak_bytes": peak, "held_bytes": held,
           "values_us": median_us(lambda: model.values(mass)),
           "weights_us": median_us(lambda: weights(one, u)),
           "limit_weights_us": median_us(lambda: weights(limit, u)),
           "euler_step_us": median_us(lambda: euler_step(one, model, mass)),
           "batched_step_us": median_us(lambda: euler_step(batch, model, stack))}
    seconds, [result] = timed_solve(solve_stationary, one, model, runs=ANDERSON_RUNS)
    row.update(stationary_s=seconds, stationary_iterations=result.steps,
               stationary_solver=result.solver,
               anderson_iteration_us=(seconds / result.steps * 1e6
                                      if result.solver == "anderson" else None))
    seconds, results = timed_solve(solve_stationary, *fit_level(grid), runs=ANDERSON_RUNS)
    row.update(fit_level_s=seconds, fit_level_iterations=sum(r.steps for r in results))
    if n <= EULER_MAX_N:
        seconds, result = timed_solve(run_to_stationary, config, model)
        row.update(euler_stationary_s=seconds, euler_steps=result.steps)
    row.update(time_writers(config, model))
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="500,2000,8000", help="comma list of grid sizes N")
    args = parser.parse_args()
    print(json.dumps({n: time_size(int(n)) for n in args.sizes.split(",")}, indent=2))


if __name__ == "__main__":
    main()
