#!/usr/bin/env python3
"""Regenerate every data exhibit into out/exhibits/.

Runs the CLI subcommands with the shipped fitted configuration:
stationary PDF + moments, eta-convergence table, kappa sweep, transient
trajectories at several noise levels, the empirical-vs-model PDF
comparison table, and the criterion-6b grid-refinement table of the
eta=0.01-to-limit stationary gap. The last two solve configs/fitted.json as
loaded, the refinement table changing only eta and the grid. Takes about
4 s on a 2-vCPU Xeon host, nearly all of it in the Euler transients: the
eta table, whose five runs step as one stack (about 1.6 s), and the four
trajectories (about 2 s together).
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from rational_logit import (LIMIT_NOISE, CompetitionUtility, Grid, bundled_catches_path,
                            empirical_pdf, load_catches, load_run_config, pdf_values,
                            solve_stationary, variational_distance, write_pdf_table)
from rational_logit.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "fitted.json"
OUT = ROOT / "out" / "exhibits"
REFINEMENT_N = (250, 500, 1000, 2000, 4000)


def coarsen_pdf(mass: np.ndarray, bins: int) -> np.ndarray:
    """Aggregate cell masses onto `bins` uniform bins (mass-exact)."""
    per_bin = len(mass) // bins
    return mass.reshape(bins, per_bin).sum(axis=1) * bins


def transient_config(eta) -> Path:
    doc = json.loads(CONFIG.read_text())
    doc["dynamic"]["eta"] = eta
    doc["record_times"] = [0.5, 1.0, 2.0, 5.0, 10.0]
    path = OUT / f"transient_config_eta_{eta}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def empirical_vs_model(path: Path) -> None:
    """The bundled catch data's PDF beside the fitted config's stationary
    PDF, on a common 20-bin grid."""
    bins = 20
    run_config = load_run_config(CONFIG)
    grid = run_config.dynamic.grid
    model = CompetitionUtility(grid, run_config.utility)
    solution = solve_stationary(run_config.dynamic, model)
    centers = (np.arange(bins) + 0.5) / bins
    write_pdf_table(path, centers, [empirical_pdf(load_catches(bundled_catches_path()), bins),
                                    coarsen_pdf(solution.final_measure.mass, bins)],
                    names=["pdf_empirical", "pdf_model"])


def limit_gap_refinement(path: Path) -> None:
    """Stationary eta=0.01 and limit states of the fitted config at each
    REFINEMENT_N, with the solver iterations of each and their gap in the PDF
    max-norm and the variational norm."""
    run_config = load_run_config(CONFIG)
    lines = ["n_cells,iterations_eta_0.01,iterations_limit,max_norm_gap,variational_gap"]
    for n in REFINEMENT_N:
        grid = Grid(n)
        model = CompetitionUtility(grid, run_config.utility)
        small, limit = (solve_stationary(replace(run_config.dynamic, eta=eta, grid=grid), model)
                        for eta in (0.01, LIMIT_NOISE))
        mu, nu = small.final_measure, limit.final_measure
        gap = float(np.max(np.abs(pdf_values(mu) - pdf_values(nu))))
        lines.append(f"{n},{small.steps},{limit.steps},{gap!r},{variational_distance(mu, nu)!r}")
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    """Run every CLI exhibit, even after a failed one, then the two library
    tables; return the exit code of the first CLI run that failed (0 if
    none did)."""
    OUT.mkdir(parents=True, exist_ok=True)
    codes = [cli_main(["stationary", "--config", str(CONFIG), "--out", str(OUT / "stationary")]),
             cli_main(["convergence-eta", "--config", str(CONFIG),
                       "--out", str(OUT / "convergence_eta")]),
             cli_main(["sweep-kappa", "--config", str(CONFIG), "--out", str(OUT / "kappa_sweep"),
                       "--kappas", "0,0.1,0.5,1"])]
    for eta in ["limit", 0.01, 0.05, 0.1]:
        codes.append(cli_main(["simulate", "--config", str(transient_config(eta)),
                               "--out", str(OUT / f"transient_eta_{eta}")]))

    empirical_vs_model(OUT / "empirical_vs_model_pdf.csv")
    limit_gap_refinement(OUT / "limit_gap_refinement.csv")
    print(f"exhibits written under {OUT}")
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
