"""Command-line entry point.

Subcommands map one-to-one to the reproducible exhibits:

  simulate         transient run, trajectory CSV at the configured times
  stationary       iterate to the stationarity threshold, PDF + moments
  fit              calibrate free parameters against the catch data
  convergence-eta  max-norm PDF error table of eta > 0 runs vs the limit run
  sweep-kappa      stationary PDFs side by side for a list of kappa values

Every run writes a manifest.json next to its outputs, even on failure.
Exit codes: 0 success, 1 config error, 2 solver error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import dataio
from .calibration import NonStationaryError, empirical_stats, fit_search
from .dynamics import (DegenerateWeightsError, DynamicConfig, TerminationKind,
                       eta_convergence_table, run_to_stationary, run_until)
from .measures import mean_and_std, pdf_values, uniform
from .utility import CompetitionUtility

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _config_as_dict(run_config: dataio.RunConfig) -> dict:
    dyn = run_config.dynamic
    doc = {
        "grid": {"n": dyn.grid.n_cells},
        "dynamic": {"kappa": dyn.kappa, "eta": "limit" if dyn.eta is None else dyn.eta,
                    "dt": dyn.dt, "delta": dyn.delta, "max_steps": run_config.max_steps},
        "utility": {k: v for k, v in dataclasses.asdict(run_config.utility).items()
                    if v is not None},
        "init": run_config.init,
        "record_times": list(run_config.record_times),
    }
    if run_config.fit is not None:
        doc["fit"] = {"free": list(run_config.fit.free),
                      "bounds": {k: list(v) for k, v in run_config.fit.bounds.items()},
                      "levels": run_config.fit.levels,
                      "points_per_dim": run_config.fit.points_per_dim,
                      "shrink": run_config.fit.shrink,
                      "max_steps": run_config.fit.max_steps}
    return doc


class _Manifest:
    """Collects run metadata and always lands on disk, error or not."""

    def __init__(self, subcommand: str, out_dir: Path):
        self.doc = {"subcommand": subcommand, "inputs": [], "outputs": [],
                    "config": None, "status": "running", "error": None,
                    "duration_seconds": None}
        self.out_dir = out_dir
        self._t0 = time.monotonic()

    def write(self, status: str, error: str | None = None):
        self.doc["status"] = status
        self.doc["error"] = error
        self.doc["duration_seconds"] = time.monotonic() - self._t0
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "manifest.json").write_text(json.dumps(self.doc, indent=2) + "\n")


def _run_guarded(subcommand: str, args, body) -> int:
    out_dir = Path(args.out)
    manifest = _Manifest(subcommand, out_dir)
    manifest.doc["inputs"].append(str(args.config))
    try:
        run_config = dataio.load_run_config(args.config)
        manifest.doc["config"] = _config_as_dict(run_config)
    except (OSError, dataio.ConfigError) as exc:
        code = EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG
        try:
            manifest.write("config-error", str(exc))
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return code
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        body(run_config, manifest)
    except dataio.ConfigError as exc:
        manifest.write("config-error", str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateWeightsError, NonStationaryError, RuntimeError, ValueError) as exc:
        manifest.write("solver-error", str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        try:
            manifest.write("io-error", str(exc))
        except OSError:
            pass
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    manifest.write("ok")
    return EXIT_OK


def _number_list(option: str, text: str) -> list[float]:
    """Parse a comma-separated list of finite numbers from a CLI option."""
    try:
        values = [float(s) for s in text.split(",")]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise dataio.ConfigError([f"{option}: comma-separated finite numbers required (got {text!r})"])


def cmd_simulate(args) -> int:
    def body(run_config, manifest):
        times = [t for t in run_config.record_times if t > 0]
        if not times:
            raise dataio.ConfigError(["record_times: at least one positive time required"])
        model = CompetitionUtility(run_config.dynamic.grid, run_config.utility)
        traj = run_until(run_config.dynamic, model, uniform(run_config.dynamic.grid),
                         max(times), times)
        out = Path(args.out) / "trajectory.csv"
        dataio.write_trajectory_csv(out, traj)
        manifest.doc["outputs"].append(str(out))
        manifest.doc["termination"] = traj.termination.kind.value

    return _run_guarded("simulate", args, body)


def cmd_stationary(args) -> int:
    def body(run_config, manifest):
        model = CompetitionUtility(run_config.dynamic.grid, run_config.utility)
        traj = run_to_stationary(run_config.dynamic, model,
                                 uniform(run_config.dynamic.grid), run_config.max_steps)
        mu = traj.final_measure
        mean, std = mean_and_std(mu)
        pdf_path = Path(args.out) / "stationary_pdf.csv"
        dataio.write_measure_csv(pdf_path, mu)
        moments = {"mean": mean, "std": std,
                   "stationary": traj.termination.kind is TerminationKind.STATIONARY,
                   "steps": traj.termination.step}
        moments_path = Path(args.out) / "moments.json"
        moments_path.write_text(json.dumps(moments, indent=2) + "\n")
        manifest.doc["outputs"] += [str(pdf_path), str(moments_path)]
        manifest.doc["termination"] = traj.termination.kind.value
        if traj.termination.kind is not TerminationKind.STATIONARY:
            manifest.doc["warning"] = f"not stationary within {run_config.max_steps} steps"

    return _run_guarded("stationary", args, body)


def cmd_fit(args) -> int:
    def body(run_config, manifest):
        if run_config.fit is None:
            raise dataio.ConfigError(["fit: section required for the fit subcommand"])
        data_path = Path(args.data) if args.data else dataio.bundled_catches_path()
        manifest.doc["inputs"].append(str(data_path))
        sample = dataio.normalize(dataio.load_catches(data_path))
        target = empirical_stats(sample)
        result = fit_search(run_config.fit, target, run_config.dynamic.grid,
                            run_config.dynamic.dt, run_config.dynamic.delta)
        doc = {"fitted_parameters": result.best,
               "objective": result.objective,
               "model_mean": result.model_moments[0],
               "model_std": result.model_moments[1],
               "target_mean": target[0],
               "target_std": target[1],
               "evaluation_count": result.evaluation_count}
        out = Path(args.out) / "fit.json"
        out.write_text(json.dumps(doc, indent=2) + "\n")
        manifest.doc["outputs"].append(str(out))

    return _run_guarded("fit", args, body)


def cmd_convergence_eta(args) -> int:
    def body(run_config, manifest):
        etas = sorted(_number_list("--etas", args.etas), reverse=True)
        times = _number_list("--times", args.times)
        model = CompetitionUtility(run_config.dynamic.grid, run_config.utility)
        rows = eta_convergence_table(run_config.dynamic, model,
                                     uniform(run_config.dynamic.grid), etas, times)
        out = Path(args.out) / "convergence_eta.csv"
        dataio.write_convergence_csv(out, rows)
        manifest.doc["outputs"].append(str(out))

    return _run_guarded("convergence-eta", args, body)


def cmd_sweep_kappa(args) -> int:
    def body(run_config, manifest):
        kappas = _number_list("--kappas", args.kappas)
        base = run_config.dynamic
        if base.eta is None:
            raise dataio.ConfigError(["dynamic.eta: sweep-kappa needs positive noise"])
        model = CompetitionUtility(base.grid, run_config.utility)
        columns, names, failures = [], [], {}
        for kappa in kappas:
            try:
                config = DynamicConfig(kappa, base.eta, base.grid, base.dt, base.delta)
                traj = run_to_stationary(config, model, uniform(base.grid),
                                         run_config.max_steps)
                columns.append(pdf_values(traj.final_measure))
                names.append(f"pdf_kappa_{kappa:g}")
            except (DegenerateWeightsError, ValueError) as exc:
                failures[f"{kappa:g}"] = str(exc)
        manifest.doc["failures"] = failures
        if not columns:
            raise RuntimeError("sweep-kappa: every kappa failed: " + json.dumps(failures))
        out = Path(args.out) / "kappa_sweep_pdf.csv"
        dataio.write_pdf_table(out, base.grid.midpoints, columns, names)
        manifest.doc["outputs"].append(str(out))

    return _run_guarded("sweep-kappa", args, body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rational-logit",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="transient run at the configured record times")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stationary", help="iterate to the stationarity threshold")
    common(p)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("fit", help="calibrate free parameters to the catch data")
    common(p)
    p.add_argument("--data", default=None, help="year,catch CSV (default: bundled dataset)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("convergence-eta", help="error table of eta > 0 runs vs the limit run")
    common(p)
    p.add_argument("--etas", default="0.1,0.01,0.001,0.0001", help="comma list of noise levels")
    p.add_argument("--times", default="1,10", help="comma list of comparison times")
    p.set_defaults(func=cmd_convergence_eta)

    p = sub.add_parser("sweep-kappa", help="stationary PDFs for several kappa values")
    common(p)
    p.add_argument("--kappas", default="0,0.1,0.5,1", help="comma list of shape parameters")
    p.set_defaults(func=cmd_sweep_kappa)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
