"""Benchmark of the rational-logit command-line tool.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout. One client drives the CLI as a closed
loop: each operation is one subcommand in a fresh interpreter
(bench/child.py), started only after the previous one has ended and its
outputs have been checked. Operations repeat until the next one would end
after S seconds; there is always at least one.

--trace 0 reports the end-to-end metrics, the median over the operations:
wall_s, cpu_s and peak_rss_mb of the subcommand, and setup_s, the median
of at least SETUP_RUNS fresh processes that import rational_logit, parse
the workload config and build its CompetitionUtility.

--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Every operation's outputs are checked against the paper's reference
values; an operation whose check fails counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full record (environment, exact counts, every operation) is saved
under .bench_runs/ in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "rational_logit"
CHILD = HERE / "child.py"
RUNS = ROOT / ".bench_runs"

SETUP_RUNS = 3
SETUP_SECONDS = 3.0
RUN_LIMIT_S = 170  # every process a run starts has ended by then
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

# ---------------------------------------------------------------------------
# workloads: inputs from the seed, CLI arguments, output checks


def _shipped_config(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text())


def _smoothed_peak_count(pdf, window=5) -> int:
    """Local maxima of the moving-average-smoothed cell PDF (the
    acceptance suite's definition for criterion 2)."""
    s = np.convolve(pdf, np.ones(window) / window, mode="valid")
    left = np.concatenate(([-np.inf], s[:-1]))
    right = np.concatenate((s[1:], [-np.inf]))
    return int(np.sum((s > left) & (s > right)))


class StationaryFitted:
    """`stationary` on configs/fitted.json, checked against criterion 2.
    The inputs are the shipped config; the seed does not change them."""

    subcommand = "stationary"
    extra_args = ()

    def config(self, seed: int) -> dict:
        return _shipped_config("fitted.json")

    def check(self, out: Path, config: dict) -> list[str]:
        moments = json.loads((out / "moments.json").read_text())
        pdf = np.loadtxt(out / "stationary_pdf.csv", delimiter=",", skiprows=1)[:, 2]
        problems = []
        if abs(moments["mean"] - 0.32471) > 0.003:
            problems.append(f"mean {moments['mean']:.5f}, want 0.32471+-0.003")
        if abs(moments["std"] - 0.30377) > 0.003:
            problems.append(f"std {moments['std']:.5f}, want 0.30377+-0.003")
        peaks = _smoothed_peak_count(pdf)
        if peaks != 2:
            problems.append(f"{peaks} peaks, want 2")
        return problems


class EtaTable:
    """`convergence-eta` with the default etas, times 1 and 10, checked
    against the criterion-3 table. The seed does not change the inputs."""

    subcommand = "convergence-eta"
    extra_args = ("--etas", "0.1,0.01,0.001,0.0001", "--times", "1,10")
    errors = {
        (1e-4, 1.0): 8.33e-5, (1e-3, 1.0): 3.74e-3, (1e-2, 1.0): 1.15e-1, (1e-1, 1.0): 1.03,
        (1e-4, 10.0): 2.44e-5, (1e-3, 10.0): 2.40e-3, (1e-2, 10.0): 1.73e-1, (1e-1, 10.0): 1.94,
    }
    rates = {
        (1e-2, 1.0): 0.95, (1e-3, 1.0): 1.49, (1e-4, 1.0): 1.65,
        (1e-2, 10.0): 1.05, (1e-3, 10.0): 1.86, (1e-4, 10.0): 1.99,
    }

    def config(self, seed: int) -> dict:
        return _shipped_config("fitted.json")

    def check(self, out: Path, config: dict) -> list[str]:
        rows = {}
        for line in (out / "convergence_eta.csv").read_text().splitlines()[1:]:
            eta, t, err, rate = line.split(",")
            rows[(float(eta), float(t))] = (float(err), float(rate) if rate else None)
        problems = []
        for key, ref in self.errors.items():
            err = rows.get(key, (None, None))[0]
            if err is None or abs(err - ref) > 0.20 * ref:
                problems.append(f"error{key}={err}, want {ref}+-20%")
        for key, ref in self.rates.items():
            rate = rows.get(key, (None, None))[1]
            if rate is None or abs(rate - ref) > 0.3:
                problems.append(f"rate{key}={rate}, want {ref}+-0.3")
        return problems


class WideTransient:
    """`simulate` at N=8000 with a snapshot at every step to t=0.1. The
    seed draws (a, b) uniformly from the fit_ab.json search box."""

    subcommand = "simulate"
    extra_args = ()
    n = 8000
    steps = 100

    def config(self, seed: int) -> dict:
        doc = _shipped_config("fitted.json")
        box = _shipped_config("fit_ab.json")["fit"]["bounds"]
        rng = random.Random(seed)
        doc["grid"]["n"] = self.n
        doc["utility"]["a"] = rng.uniform(*box["a"])
        doc["utility"]["b"] = rng.uniform(*box["b"])
        doc["record_times"] = [k / 1000 for k in range(1, self.steps + 1)]
        return doc

    def check(self, out: Path, config: dict) -> list[str]:
        table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        n, snaps = self.n, self.steps + 1
        if table.shape != (snaps * n, 3):
            return [f"trajectory has shape {table.shape}, want ({snaps * n}, 3)"]
        problems = []
        times = table[::n, 0]
        want = np.array([0.0] + config["record_times"])
        if not np.array_equal(times, want):
            problems.append("snapshot times differ from record_times")
        pdf = table[:, 2].reshape(snaps, n)
        if np.any(pdf < 0.0) or np.any(np.isnan(pdf)):
            problems.append("negative or NaN density")
        worst = float(np.max(np.abs(pdf.sum(axis=1) / n - 1.0)))
        if worst > 1e-9:
            problems.append(f"snapshot mass off 1 by {worst:.3g}")
        return problems


class FitCoarse:
    """`fit` on configs/fit_ab.json reduced to levels=0, points_per_dim=2
    (4 evaluations); the full profile takes minutes. The seed does not
    change the inputs."""

    subcommand = "fit"
    extra_args = ()

    def config(self, seed: int) -> dict:
        doc = _shipped_config("fit_ab.json")
        doc["fit"]["levels"] = 0
        doc["fit"]["points_per_dim"] = 2
        return doc

    def check(self, out: Path, config: dict) -> list[str]:
        fit = json.loads((out / "fit.json").read_text())
        problems = []
        if fit["evaluation_count"] != 4:
            problems.append(f"{fit['evaluation_count']} evaluations, want 4")
        best = fit["fitted_parameters"]
        if abs(best["a"] - 0.2) > 1e-12 or abs(best["b"] - 0.15) > 1e-12:
            problems.append(f"best point ({best['a']}, {best['b']}), want (0.2, 0.15)")
        return problems


WORKLOADS = {
    "stationary-fitted": StationaryFitted(),
    "eta-table": EtaTable(),
    "wide-transient": WideTransient(),
    "fit-coarse": FitCoarse(),
}

# ---------------------------------------------------------------------------
# exact counts and per-layer metrics

# count name -> wrapped span name (or tracer tally) it reads
COUNTS = {
    "dynamics.steps": "dynamics.euler_step",
    "utility.values_calls": "utility.CompetitionUtility.values",
    "measures.gridmeasure_calls": "measures.GridMeasure.__init__",
    "kexp.log_e_kappa_calls": "kexp.log_e_kappa",
    "calibration.evaluations": "calibration.evaluations",
    "calibration.failed_evaluations": "calibration.failed_evaluations",
    "dataio.bytes_written": "dataio.bytes_written",
}

SOLVERS = {"dynamics.run_until", "dynamics.run_to_stationary", "dynamics.eta_convergence_table"}
WRITERS = {"dataio.write_measure_csv", "dataio.write_trajectory_csv",
           "dataio.write_convergence_csv", "dataio.write_pdf_table"}

PER_LAYER_UNITS = {
    "utility.build_s": "s",
    "utility.values_us": "us",
    "utility.values_s": "s",
    "utility.values_calls": "count",
    "utility.values_gbps_computed": "GB/s",
    "dynamics.steps": "count",
    "dynamics.euler_step_us": "us",
    "dynamics.euler_step_self_us": "us",
    "dynamics.solve_s": "s",
    "kexp.log_e_kappa_s": "s",
    "kexp.log_e_kappa_calls": "count",
    "measures.gridmeasure_us": "us",
    "measures.gridmeasure_calls": "count",
    "calibration.evaluations": "count",
    "calibration.failed_evaluations": "count",
    "calibration.eval_s": "s",
    "dataio.load_run_config_s": "s",
    "dataio.write_s": "s",
    "dataio.bytes_written": "B",
    "dataio.write_mbps": "MB/s",
    **{f"{m}.self_s": "s" for m in tracer.MODULES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_pct": "%",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def exact_counts(raw: dict) -> dict:
    return {name: int(raw.get(key, 0)) for name, key in COUNTS.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans_file: Path, n_cells: int) -> dict:
    """Per-layer values of one traced operation."""
    names, spans, extras = tracer.load(spans_file)
    rows = tracer.summarize(names, spans)

    def total(name):
        return rows.get(name, {}).get("total_ns", 0) / 1e9

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    values_s = total("utility.CompetitionUtility.values")
    values_calls = calls("utility.CompetitionUtility.values")
    step_self_s = rows.get("dynamics.euler_step", {}).get("self_ns", 0) / 1e9
    steps = calls("dynamics.euler_step")
    grid_calls = calls("measures.GridMeasure.__init__")
    evaluations = extras.get("calibration.evaluations", 0)
    write_s = sum(total(w) for w in WRITERS)
    written = extras.get("dataio.bytes_written", 0)
    out = {
        "utility.build_s": total("utility.CompetitionUtility.__init__"),
        "utility.values_us": _ratio(values_s * 1e6, values_calls),
        "utility.values_s": values_s,
        "utility.values_calls": values_calls,
        # two dense N x N float64 matrices read per call; computed, not measured
        "utility.values_gbps_computed": _ratio(values_calls * 2 * n_cells ** 2 * 8 / 1e9, values_s),
        "dynamics.steps": steps,
        "dynamics.euler_step_us": _ratio(total("dynamics.euler_step") * 1e6, steps),
        "dynamics.euler_step_self_us": _ratio(step_self_s * 1e6, steps),
        "dynamics.solve_s": tracer.outermost_ns(names, spans, SOLVERS) / 1e9,
        "kexp.log_e_kappa_s": total("kexp.log_e_kappa"),
        "kexp.log_e_kappa_calls": calls("kexp.log_e_kappa"),
        "measures.gridmeasure_us": _ratio(total("measures.GridMeasure.__init__") * 1e6, grid_calls),
        "measures.gridmeasure_calls": grid_calls,
        "calibration.evaluations": evaluations,
        "calibration.failed_evaluations": extras.get("calibration.failed_evaluations", 0),
        "calibration.eval_s": _ratio(total("calibration.fit_search"), evaluations),
        "dataio.load_run_config_s": total("dataio.load_run_config"),
        "dataio.write_s": write_s,
        "dataio.bytes_written": written,
        "dataio.write_mbps": _ratio(written / 1e6, write_s),
    }
    for module in tracer.MODULES:
        out[f"{module}.self_s"] = sum(r["self_ns"] for name, r in rows.items()
                                      if name.split(".", 1)[0] == module) / 1e9
    return out


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(n_cells: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = _llc_bytes()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "openblas_num_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "grid_n": n_cells,
        # the computed bandwidth reads two of these per utility call
        "dense_matrix_bytes": n_cells * n_cells * 8,
        "dense_matrix_over_llc": round(n_cells * n_cells * 8 / llc, 3) if llc else None,
    }


# ---------------------------------------------------------------------------
# running


def _child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def _child(args: list[str], limit: float) -> subprocess.CompletedProcess:
    """Run child.py; on reaching `limit` (a perf_counter time) the child is
    killed and reaped, and TimeoutExpired raised."""
    return subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                          text=True, env=_child_env(), cwd=ROOT,
                          timeout=max(1.0, limit - time.perf_counter()))


def measure_setup(config_path: Path, limit: float) -> list[float]:
    """Wall seconds of fresh set-up processes: at least SETUP_RUNS, and more
    until SETUP_SECONDS have passed. One untimed process runs first and
    leaves compiled bytecode behind, as a user's second run would."""
    _child(["setup", str(config_path)], limit)
    times = []
    while len(times) < SETUP_RUNS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        done = _child(["setup", str(config_path)], limit)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"setup failed: {done.stderr.strip()}")
    return times


def run_op(workload, config: dict, config_path: Path, out: Path, mode: str,
           spans_file: Path, limit: float) -> dict:
    """One subcommand in a fresh process, then its output check."""
    cli_args = [workload.subcommand, "--config", str(config_path), "--out", str(out),
                *workload.extra_args]
    try:
        done = _child(["run", mode, str(spans_file), "--", *cli_args], limit)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"killed after the run's {RUN_LIMIT_S} s limit"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"ok": False, "problems": [f"child exited {done.returncode}: "
                                          f"{done.stderr.strip()[-500:]}"]}
    result = json.loads(lines[-1])
    if result["exit"] != 0:
        result["problems"] = [f"CLI exited {result['exit']}: {done.stderr.strip()[-500:]}"]
    else:
        try:
            result["problems"] = workload.check(out, config)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result["problems"] = [f"output unreadable: {exc!r}"]
    result["ok"] = not result["problems"]
    result["counts"] = exact_counts(result["counts"])
    shutil.rmtree(out, ignore_errors=True)
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def check_counts(ops: list[dict], key: str) -> list[str]:
    """Exact counts must repeat across the operations of this run and
    across earlier runs of the same code on the same inputs, which `key`
    names in a ledger kept between runs."""
    flags = []
    counts = [op["counts"] for op in ops if op["ok"]]
    if any(c != counts[0] for c in counts[1:]):
        flags.append("exact counts differ between operations of this run")
    if not counts:
        return flags
    ledger_path = RUNS / "counts_ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    earlier = ledger.setdefault(key, counts[0])
    if earlier != counts[0]:
        flags.append(f"exact counts differ from an earlier run of the same code: {earlier}")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "cli.py", ROOT / "configs" / "fitted.json",
                           ROOT / "configs" / "fit_ab.json") if not p.is_file()]
    if missing:
        print(f"error: not a rational-logit checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    limit = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = workload.config(args.seed)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=1) + "\n")
        n_cells = config["grid"]["n"]
        env = environment(n_cells)
        print("environment " + json.dumps(env), flush=True)

        setup_times = measure_setup(config_path, limit) if args.trace == 0 else []
        modes = ["count"] if args.trace == 0 else ["count", "trace"]
        ops = []
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            for mode in modes:
                spans_file = work / f"spans-{len(ops)}.json"
                op = run_op(workload, config, config_path, work / f"out-{len(ops)}",
                            mode, spans_file, limit)
                op["mode"] = mode
                if mode == "trace" and op["ok"]:
                    op["layers"] = layer_metrics(spans_file, n_cells)
                spans_file.unlink(missing_ok=True)
                ops.append(op)
                print(f"op {len(ops)} {mode}: " + ("ok" if op["ok"] else "FAILED ")
                      + "; ".join(op["problems"])
                      + (f" wall {op['wall_s']:.3f} s" if "wall_s" in op else ""), flush=True)
            now = time.perf_counter()
            if now + (now - t0) > min(deadline, limit):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if op["ok"]]
    failed = len(ops) - len(good)
    inputs = json.dumps([config, workload.extra_args, env["source_sha256"]], sort_keys=True)
    flags = check_counts(ops, f"{args.workload}|{hashlib.sha256(inputs.encode()).hexdigest()[:16]}")
    for flag in flags:
        print("FLAG " + flag, flush=True)

    if args.trace == 0:
        values = {
            "wall_s": _median([op["wall_s"] for op in good]),
            "setup_s": _median(setup_times),
            "cpu_s": _median([op["cpu_s"] for op in good]),
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in good]),
        }
        units = END_TO_END_UNITS
    else:
        traced = [op for op in good if op["mode"] == "trace"]
        plain = [op for op in good if op["mode"] == "count"]
        values = {name: _median([op["layers"][name] for op in traced])
                  for name in PER_LAYER_UNITS if not name.startswith("trace.")}
        values["trace.wall_s"] = _median([op["wall_s"] for op in traced])
        values["trace.untraced_wall_s"] = _median([op["wall_s"] for op in plain])
        values["trace.overhead_pct"] = 100.0 * _ratio(
            values["trace.wall_s"] - values["trace.untraced_wall_s"],
            values["trace.untraced_wall_s"])
        units = PER_LAYER_UNITS

    counts = good[0]["counts"] if good else {}
    print("exact counts " + json.dumps(counts), flush=True)
    for name, unit in units.items():
        value = values[name]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:32s} {shown} {unit}", flush=True)
    if args.trace == 1:
        print(f"  (utility.values_gbps_computed assumes 2 dense {n_cells}x{n_cells} float64 "
              f"matrices of {env['dense_matrix_bytes']} B each per call; "
              f"LLC {env['llc_bytes']} B)", flush=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setup_times,
              "counts": counts, "flags": flags, "operations": ops, "metrics": values}
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    (RUNS / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0 and bool(ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
