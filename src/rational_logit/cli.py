"""Command-line entry point.

Subcommands map one-to-one to the reproducible exhibits:

  simulate         transient run, trajectory CSV at the configured times
  stationary       solve for the stationary state, PDF + moments
  fit              calibrate free parameters against the catch data
  convergence-eta  max-norm PDF error table of eta > 0 runs vs the limit run
  sweep-kappa      stationary PDFs side by side for a list of kappa values

Every run writes a manifest.json next to its outputs, even on failure,
and first with status "running" once its config loads.
Exit codes: 0 success, 1 config error, 2 solver error, 3 I/O error,
4 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import dataio
from .calibration import empirical_stats, fit_search
from .dynamics import (LIMIT_NOISE, DegenerateWeightsError, DynamicBatch, eta_convergence_table,
                       record_steps, run_until, solve_stationary)
from .measures import ConfigError, mean_and_std, pdf_values
from .utility import CompetitionUtility

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# The first matching row wins; ConfigError is a ValueError, so it comes first.
_FAILURES = (
    (ConfigError, "config-error", EXIT_CONFIG),
    (OSError, "io-error", EXIT_IO),
    ((RuntimeError, ValueError), "solver-error", EXIT_SOLVER),
    (Exception, "internal-error", EXIT_INTERNAL),
)


class _Manifest:
    """Collects run metadata and always lands on disk, error or not."""

    def __init__(self, subcommand: str, out_dir: Path):
        self.doc = {"subcommand": subcommand, "inputs": [], "options": {}, "outputs": [],
                    "config": None, "status": "running", "error": None,
                    "duration_seconds": None}
        self.out_dir = out_dir
        self._t0 = time.monotonic()

    def output(self, name: str) -> Path:
        """Record an output by its name relative to the output directory
        and return its path."""
        self.doc["outputs"].append(name)
        return self.out_dir / name

    def write(self, status: str, error: str | None = None):
        self.doc["status"] = status
        self.doc["error"] = error
        self.doc["duration_seconds"] = time.monotonic() - self._t0
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "manifest.json").write_text(json.dumps(self.doc, indent=2) + "\n")


def _number_list(option: str, text: str) -> list[float]:
    """Parse a comma-separated list of finite numbers from a CLI option."""
    try:
        values = [float(s) for s in text.split(",")]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise ConfigError([f"{option}: comma-separated finite numbers required (got {text!r})"])


def _model(run_config: dataio.RunConfig) -> CompetitionUtility:
    return CompetitionUtility(run_config.dynamic.grid, run_config.utility)


def _simulate(args, run_config, manifest):
    dynamic, problems = run_config.dynamic, []
    dataio.collect_problems(problems, "record_times: ", record_steps, run_config.record_times,
                            dynamic.dt, dynamic.max_steps)
    if problems:
        raise ConfigError(problems)
    [snapshots] = run_until(DynamicBatch([dynamic]), _model(run_config), run_config.record_times)
    dataio.write_trajectory_csv(manifest.output("trajectory.csv"), snapshots)
    manifest.doc["termination"] = "reached_final_time"


def _stationary(args, run_config, manifest):
    [solution] = solve_stationary(DynamicBatch([run_config.dynamic]), _model(run_config))
    if isinstance(solution, DegenerateWeightsError):
        raise solution
    mu = solution.final_measure
    mean, std = mean_and_std(mu)
    dataio.write_table(manifest.output("stationary_pdf.csv"),
                       {"x_mid": mu.grid.midpoints, "mass": mu.mass, "pdf": pdf_values(mu)})
    moments = {"mean": mean, "std": std, "stationary": solution.stationary,
               "solver": solution.solver, "steps": solution.steps}
    manifest.output("moments.json").write_text(json.dumps(moments, indent=2) + "\n")
    manifest.doc["termination"] = "stationary" if solution.stationary else "max_steps"
    manifest.doc["solver"] = solution.solver
    manifest.doc["fallback"] = solution.fallback
    if not solution.stationary:
        manifest.doc["warning"] = f"not stationary within {run_config.dynamic.max_steps} steps"


def _fit(args, run_config, manifest):
    if run_config.fit is None:
        raise ConfigError(["fit: section required for the fit subcommand"])
    data_path = Path(args.data) if args.data else dataio.bundled_catches_path()
    manifest.doc["inputs"].append(str(data_path))
    try:
        target = empirical_stats(dataio.load_catches(data_path))
    except ValueError as exc:  # a malformed file; an unreadable one stays an OSError
        raise ConfigError([f"--data: {exc}"]) from None
    result = fit_search(run_config.fit, target, run_config.dynamic, run_config.utility)
    doc = {"fitted_parameters": {name: dataio.LIMIT_SPELLING if value is LIMIT_NOISE else value
                                 for name, value in result.best.items()},
           "objective": result.objective,
           "model_mean": result.model_moments[0],
           "model_std": result.model_moments[1],
           "target_mean": target[0],
           "target_std": target[1],
           "evaluation_count": result.evaluation_count}
    manifest.output("fit.json").write_text(json.dumps(doc, indent=2) + "\n")
    manifest.doc["solvers"] = result.solvers
    manifest.doc["fallback"] = result.fallback


def _convergence_eta(args, run_config, manifest):
    base = run_config.dynamic
    etas = _number_list("--etas", args.etas)
    times = _number_list("--times", args.times)
    problems = []
    dataio.collect_problems(problems, "--times: ", record_steps, times, base.dt, base.max_steps)
    if len(set(etas)) < len(etas):
        problems.append(f"--etas: distinct numbers required (got {args.etas!r})")
    for prefix, eta in [("dynamic.", LIMIT_NOISE),  # then each distinct value once
                        *(("--etas: ", eta) for eta in dict.fromkeys(etas))]:
        dataio.collect_problems(problems, prefix, replace, base, eta=eta)
    if problems:
        raise ConfigError(problems)
    table = eta_convergence_table(base, _model(run_config), etas, times)
    dataio.write_table(manifest.output("convergence_eta.csv"), table)


def _sweep_kappa(args, run_config, manifest):
    # + 0.0 turns -0 into 0, so no column name or record key reads -0
    kappas = [k + 0.0 for k in _number_list("--kappas", args.kappas)]
    names = [f"{kappa:g}" for kappa in kappas]  # the CSV columns and the solvers keys
    problems = []
    if len(set(names)) < len(names):
        problems.append("--kappas: numbers distinct in 6 significant digits required "
                        f"(got {args.kappas!r})")
    base = run_config.dynamic
    configs = [dataio.collect_problems(problems, "--kappas: ", replace, base, kappa=kappa)
               for kappa in dict.fromkeys(kappas)]  # each value once; a repeat is a problem
    if problems:
        raise ConfigError(problems)
    columns, solvers = {"x_mid": base.grid.midpoints}, {}
    for name, solution in zip(names, solve_stationary(DynamicBatch(configs), _model(run_config))):
        if isinstance(solution, DegenerateWeightsError):
            raise solution
        columns[f"pdf_kappa_{name}"] = pdf_values(solution.final_measure)
        solvers[name] = {"solver": solution.solver, "steps": solution.steps,
                         "stationary": solution.stationary, "fallback": solution.fallback}
    manifest.doc["solvers"] = solvers
    dataio.write_table(manifest.output("kappa_sweep_pdf.csv"), columns)


# name: (run(args, run_config, manifest), help, {option: (default, help)})
SUBCOMMANDS = {
    "simulate": (_simulate, "transient run at the configured record times", {}),
    "stationary": (_stationary, "solve for the stationary state", {}),
    "fit": (_fit, "calibrate free parameters to the catch data",
            {"--data": (None, "year,catch CSV (default: bundled dataset)")}),
    "convergence-eta": (_convergence_eta, "error table of eta > 0 runs vs the limit run",
                        {"--etas": ("0.1,0.01,0.001,0.0001", "comma list of noise levels"),
                         "--times": ("1,10", "comma list of comparison times")}),
    "sweep-kappa": (_sweep_kappa, "stationary PDFs for several kappa values",
                    {"--kappas": ("0,0.1,0.5,1", "comma list of shape parameters")}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rational-logit",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        for option, (default, option_help) in options.items():
            p.add_argument(option, default=default, help=option_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = _Manifest(args.subcommand, Path(args.out))
    manifest.doc["inputs"].append(str(args.config))
    manifest.doc["options"] = {option: getattr(args, option[2:])
                               for option in SUBCOMMANDS[args.subcommand][2]}
    try:
        run_config = dataio.load_run_config(args.config)
        manifest.doc["config"] = run_config.resolved
        manifest.write("running")  # what a run stopped from outside leaves
        SUBCOMMANDS[args.subcommand][0](args, run_config, manifest)
        manifest.write("ok")
        return EXIT_OK
    except Exception as exc:  # not BaseException: Ctrl-C still interrupts
        status, code = next((s, c) for kinds, s, c in _FAILURES if isinstance(exc, kinds))
        error = f"{type(exc).__name__}: {exc}" if code == EXIT_INTERNAL else str(exc)
        try:
            manifest.write(status, error)
        except OSError:
            pass  # the output directory is unwritable; stderr still reports
        print(f"error: {error}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
