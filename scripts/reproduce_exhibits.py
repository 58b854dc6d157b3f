#!/usr/bin/env python3
"""Regenerate every data exhibit into out/exhibits/.

Runs the CLI subcommands `stationary`, `convergence-eta` and `sweep-kappa`
with the shipped fitted configuration, then three library exhibits on
configs/fitted.json: the transient trajectories at the limit and at eta
0.01, 0.05 and 0.1, stepped as one `run_until` batch and each written as
`simulate` writes it, the empirical-vs-model PDF comparison table, and the
criterion-6b grid-refinement table of the eta=0.01-to-limit stationary
gap, which changes only eta and the grid. Nearly all of the time goes to
the Euler transients: the eta table's five runs and the four trajectories,
each set stepped as one stack.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from rational_logit import (LIMIT_NOISE, CompetitionUtility, DynamicBatch, Grid,
                            bundled_catches_path, empirical_pdf, load_catches, load_run_config,
                            pdf_values, run_until, solve_stationary, variational_distance,
                            write_table, write_trajectory_csv)
from rational_logit.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "fitted.json"
OUT = ROOT / "out" / "exhibits"
REFINEMENT_N = (250, 500, 1000, 2000, 4000)
TRANSIENT_ETAS = (LIMIT_NOISE, 0.01, 0.05, 0.1)
TRANSIENT_TIMES = [0.5, 1.0, 2.0, 5.0, 10.0]


def coarsen_pdf(mass: np.ndarray, bins: int) -> np.ndarray:
    """Aggregate cell masses onto `bins` uniform bins (mass-exact)."""
    per_bin = len(mass) // bins
    return mass.reshape(bins, per_bin).sum(axis=1) * bins


def transients(out: Path) -> None:
    """The fitted config's trajectories at each of TRANSIENT_ETAS, stepped
    as one batch, into transient_eta_<eta>/trajectory.csv under `out`."""
    run_config = load_run_config(CONFIG)
    batch = DynamicBatch(replace(run_config.dynamic, eta=eta) for eta in TRANSIENT_ETAS)
    model = CompetitionUtility(run_config.dynamic.grid, run_config.utility)
    for eta, snapshots in zip(TRANSIENT_ETAS, run_until(batch, model, TRANSIENT_TIMES)):
        run_dir = out / f"transient_eta_{'limit' if eta is LIMIT_NOISE else eta}"
        run_dir.mkdir(exist_ok=True)
        write_trajectory_csv(run_dir / "trajectory.csv", snapshots)


def empirical_vs_model(path: Path) -> None:
    """The bundled catch data's PDF beside the fitted config's stationary
    PDF, on a common 20-bin grid."""
    bins = 20
    run_config = load_run_config(CONFIG)
    model = CompetitionUtility(run_config.dynamic.grid, run_config.utility)
    [solution] = solve_stationary(DynamicBatch([run_config.dynamic]), model)
    centers = (np.arange(bins) + 0.5) / bins
    write_table(path, {"x_mid": centers,
                       "pdf_empirical": empirical_pdf(load_catches(bundled_catches_path()), bins),
                       "pdf_model": coarsen_pdf(solution.final_measure.mass, bins)})


def limit_gap_refinement(path: Path) -> None:
    """Stationary eta=0.01 and limit states of the fitted config at each
    REFINEMENT_N, solved together as one batch, with the solver iterations
    of each and their gap in the PDF max-norm and the variational norm."""
    run_config = load_run_config(CONFIG)
    rows = []
    for n in REFINEMENT_N:
        grid = Grid(n)
        model = CompetitionUtility(grid, run_config.utility)
        pair = DynamicBatch(replace(run_config.dynamic, eta=eta, grid=grid)
                            for eta in (0.01, LIMIT_NOISE))
        small, limit = solve_stationary(pair, model)
        mu, nu = small.final_measure, limit.final_measure
        gap = np.max(np.abs(pdf_values(mu) - pdf_values(nu)))
        rows.append((n, small.steps, limit.steps, gap, variational_distance(mu, nu)))
    write_table(path, dict(zip(("n_cells", "iterations_eta_0.01", "iterations_limit",
                                "max_norm_gap", "variational_gap"), zip(*rows))))


def main() -> int:
    """Run every CLI exhibit, even after a failed one, then the three library
    exhibits, which raise on a failure; return the exit code of the first
    CLI run that failed (0 if none did)."""
    OUT.mkdir(parents=True, exist_ok=True)
    codes = [cli_main(["stationary", "--config", str(CONFIG), "--out", str(OUT / "stationary")]),
             cli_main(["convergence-eta", "--config", str(CONFIG),
                       "--out", str(OUT / "convergence_eta")]),
             cli_main(["sweep-kappa", "--config", str(CONFIG), "--out", str(OUT / "kappa_sweep")])]
    transients(OUT)
    empirical_vs_model(OUT / "empirical_vs_model_pdf.csv")
    limit_gap_refinement(OUT / "limit_gap_refinement.csv")
    print(f"exhibits written under {OUT}")
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
