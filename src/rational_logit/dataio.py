"""Catch-data ingestion, run configuration parsing, and CSV emission.

All numeric CSV output uses the shortest round-trip decimal representation
with LF line endings, so repeated runs on the same platform are
bit-identical and parsing the file recovers the exact doubles. A writer
streams its file one block at a time (a trajectory one snapshot at a time),
formatting each column once, so memory is bounded by one block's text.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from pathlib import Path

import numpy as np

from .calibration import FREE_PARAM_ORDER, EmpiricalSample, FitSpec
from .dynamics import DynamicConfig, Trajectory, lattice_step
from .measures import Grid, GridMeasure, pdf_values
from .utility import CompetitionParams

__all__ = [
    "CatchDataset",
    "ConfigError",
    "RunConfig",
    "bundled_catches_path",
    "load_catches",
    "normalize",
    "lattice_problems",
    "load_run_config",
    "write_measure_csv",
    "write_trajectory_csv",
    "write_convergence_csv",
    "write_pdf_table",
]


def _fmt(value: float) -> str:
    # shortest decimal that round-trips the exact double
    return repr(float(value))


@dataclass(frozen=True)
class CatchDataset:
    """Per-year catch counts; each year needs a strictly positive maximum."""

    records: tuple  # ((year, (catch, ...)), ...)

    def __post_init__(self):
        for year, catches in self.records:
            if len(catches) == 0:
                raise ValueError(f"year {year}: no records")
            if max(catches) <= 0:
                raise ValueError(f"year {year}: maximum catch is 0, normalization undefined")

    @property
    def total_records(self) -> int:
        return sum(len(c) for _, c in self.records)


def bundled_catches_path() -> Path:
    """Path of the shipped competition dataset."""
    return Path(resources.files("rational_logit").joinpath("data/catches.csv"))


def load_catches(path) -> CatchDataset:
    """Parse a `year,catch` CSV into a CatchDataset, preserving row order."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "year,catch":
        raise ValueError(f"{path}: expected header 'year,catch'")
    by_year: dict[str, list[int]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        year, raw = parts[0].strip(), parts[1].strip()
        try:
            catch = int(raw)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: catch {raw!r} is not an integer") from None
        if catch < 0:
            raise ValueError(f"{path}:{lineno}: negative catch {catch}")
        by_year.setdefault(year, []).append(catch)
    return CatchDataset(tuple((y, tuple(c)) for y, c in by_year.items()))


def normalize(dataset: CatchDataset) -> EmpiricalSample:
    """Divide each catch by its own year's maximum and pool the values."""
    values = []
    per_year_max = {}
    for year, catches in dataset.records:
        year_max = max(catches)
        per_year_max[year] = year_max
        values += [c / year_max for c in catches]
    return EmpiricalSample(np.array(values), per_year_max)


class ConfigError(ValueError):
    """Invalid run configuration; `problems` lists one message per field."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, one object per config section: the
    dynamic config (step budget included), the utility parameters, the
    snapshot times, and the fit search. The only initial condition is the
    uniform one.

    `resolved` is the configuration document as the loader accepted it,
    defaults filled in; it is a record for the run manifest and selects no
    behaviour. Loading it again gives an equal RunConfig."""

    dynamic: DynamicConfig
    utility: CompetitionParams
    record_times: tuple
    fit: FitSpec | None = None
    resolved: dict = field(default_factory=dict, repr=False)


def _get(doc: dict, dotted: str, default=None):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def lattice_problems(label: str, times, dt: float) -> list[str]:
    """One `label: ...` problem per time that is not a whole number of dt steps."""
    problems = []
    for t in times:
        try:
            lattice_step(t, dt)
        except ValueError as exc:
            problems.append(f"{label}: {exc}")
    return problems


def load_run_config(path) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Collects every field problem before raising, so a bad config reports
    all of its errors at once; a key the schema does not name is one too. Every accepted value, defaults included, is
    recorded in `RunConfig.resolved`.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError([f"top level: JSON object required (got {doc!r})"])
    problems: list[str] = []
    resolved: dict = {}
    # the keys each object of the document may hold, by dotted path
    schema = {
        "": ("grid", "dynamic", "utility", "init", "record_times", "fit"),
        "grid": ("n",),
        "dynamic": ("kappa", "eta", "dt", "delta", "max_steps"),
        "utility": ("a", "b", "c", "d", "alpha", "epsilon"),
        "fit": ("free", "bounds", "levels", "points_per_dim", "shrink"),
        "fit.bounds": FREE_PARAM_ORDER,
    }
    for section, keys in schema.items():
        node = _get(doc, section, {}) if section else doc
        prefix = section + "." if section else ""
        if not isinstance(node, dict):
            problems.append(f"{section}: JSON object required (got {node!r})")
        else:
            problems += [f"{prefix}{key}: unknown key" for key in node if key not in keys]

    def accept(dotted, value):
        node = resolved
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
        return value

    def check(dotted, default, validator, message):
        value = _get(doc, dotted, default)
        if value is None or not validator(value):
            problems.append(f"{dotted}: {message} (got {value!r})")
            return None
        return accept(dotted, value)

    # json accepts Infinity and NaN; no config number may be non-finite
    is_num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    is_int = lambda v: isinstance(v, int) and not isinstance(v, bool)
    is_pair = lambda v: isinstance(v, list) and len(v) == 2 and all(map(is_num, v))
    n = check("grid.n", 500, lambda v: is_int(v) and v >= 2, "integer >= 2 required")
    kappa = check("dynamic.kappa", None, lambda v: is_num(v) and 0.0 <= v <= 1.0,
                  "number in [0, 1] required")
    eta = accept("dynamic.eta", _get(doc, "dynamic.eta"))
    eta_value = None
    if eta == "limit":
        if kappa == 0.0:
            problems.append('dynamic.eta: "limit" requires dynamic.kappa > 0')
    elif is_num(eta) and eta > 0:
        eta_value = float(eta)
    else:
        problems.append(f'dynamic.eta: positive number or "limit" required (got {eta!r})')
    dt = check("dynamic.dt", 0.001, lambda v: is_num(v) and 0.0 < v <= 1.0,
               "number in (0, 1] required")
    delta = check("dynamic.delta", 1e-11, lambda v: is_num(v) and v > 0.0,
                  "positive number required")
    max_steps = check("dynamic.max_steps", 1_000_000, lambda v: is_int(v) and v >= 1,
                      "integer >= 1 required")
    a = check("utility.a", 0.27, lambda v: is_num(v) and v >= 0, "number >= 0 required")
    b = check("utility.b", 0.23, lambda v: is_num(v) and v >= 0, "number >= 0 required")
    c = check("utility.c", 1.0, lambda v: is_num(v) and v >= 0, "number >= 0 required")
    d = check("utility.d", 1.0, lambda v: is_num(v) and v >= 0, "number >= 0 required")
    alpha = check("utility.alpha", 0.2, lambda v: is_num(v) and 0.0 < v < 1.0,
                  "number in (0, 1) required")
    epsilon = _get(doc, "utility.epsilon")
    if epsilon is not None:
        epsilon = check("utility.epsilon", None, lambda v: is_num(v) and v > 0,
                        "positive number required")
    check("init", "uniform", lambda v: v == "uniform", 'only "uniform" is supported')
    record_times = accept("record_times", _get(doc, "record_times", [1.0, 10.0]))
    if not (isinstance(record_times, list) and all(is_num(t) and t >= 0 for t in record_times)):
        problems.append(f"record_times: list of numbers >= 0 required (got {record_times!r})")
        record_times = []
    if dt is not None:
        problems += lattice_problems("record_times", record_times, dt)

    # one [lo, hi] pair per free parameter, and no bound for a fixed one
    free, bounds = _get(doc, "fit.free", []), _get(doc, "fit.bounds", {})
    if (isinstance(free, list) and all(isinstance(p, str) for p in free)
            and isinstance(bounds, dict)):
        for p in dict.fromkeys([*bounds, *free]):
            if not is_pair(bounds.get(p)):
                problems.append(f"fit.bounds.{p}: [lo, hi] pair required (got {bounds.get(p)!r})")
            if p in FREE_PARAM_ORDER and p not in free:
                problems.append(f"fit.bounds.{p}: bound for a parameter not in fit.free")

    fit_spec = None
    if "fit" in doc and not problems:
        fit_doc = doc["fit"]
        try:
            if not isinstance(free, list):
                raise TypeError(f"free must be a list of names (got {free!r})")
            schedule = {"levels": fit_doc.get("levels", 2),
                        "points_per_dim": fit_doc.get("points_per_dim", 5),
                        "shrink": fit_doc.get("shrink", 0.5)}
            fit_spec = FitSpec(free=tuple(free),
                               bounds={k: tuple(v) for k, v in bounds.items()}, **schedule)
            accept("fit", {"free": free, "bounds": bounds, **schedule})
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"fit: {exc}")
        # fit_search would meet this as the ValueError of its first point
        if (fit_spec is not None and eta_value is None and "kappa" in fit_spec.free
                and fit_spec.bounds["kappa"][0] <= 0.0):
            problems.append("fit.bounds.kappa: the vanishing-noise limit requires kappa > 0 "
                            f"(got {bounds['kappa']!r})")

    if problems:
        raise ConfigError(problems)

    dynamic = DynamicConfig(float(kappa), eta_value, Grid(n), float(dt), float(delta),
                            max_steps=max_steps)
    params = CompetitionParams(a=float(a), b=float(b), c=float(c), d=float(d),
                               alpha=float(alpha),
                               epsilon=float(epsilon) if epsilon is not None else None)
    return RunConfig(dynamic, params, tuple(float(t) for t in record_times), fit_spec,
                     resolved)


def _fmt_column(values) -> list[str]:
    """`_fmt` of every value, through one `tolist` and one `repr` each."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _write_csv(path, header: str, blocks) -> None:
    """Write `header`, then each block of `blocks` as one joined text.

    A block is a sequence of equal-length columns of formatted fields, so a
    column shared by several blocks is formatted once and passed to each.
    Only one block's text is held at a time.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            lines = list(map(",".join, zip(*columns)))
            lines.append("")  # the last row's line ending
            fh.write("\n".join(lines))


def write_measure_csv(path, mu: GridMeasure) -> None:
    """Rows `x_mid,mass,pdf`, one per cell."""
    columns = [_fmt_column(mu.grid.midpoints), _fmt_column(mu.mass),
               _fmt_column(pdf_values(mu))]
    _write_csv(path, "x_mid,mass,pdf", [columns])


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Rows `time,x_mid,pdf` for every snapshot and cell, one block per
    snapshot."""
    x_mid = functools.cache(lambda grid: _fmt_column(grid.midpoints))
    blocks = ((repeat(_fmt(t)), x_mid(mu.grid), _fmt_column(pdf_values(mu)))
              for t, mu in traj.snapshots)
    _write_csv(path, "time,x_mid,pdf", blocks)


def write_convergence_csv(path, rows) -> None:
    """Rows `eta,time,error,rate`; the rate field is empty where undefined."""
    columns = [[_fmt(row.eta) for row in rows], [_fmt(row.time) for row in rows],
               [_fmt(row.error) for row in rows],
               ["" if row.rate is None else _fmt(row.rate) for row in rows]]
    _write_csv(path, "eta,time,error,rate", [columns])


def write_pdf_table(path, x_mid, series, names=None) -> None:
    """Rows `x_mid,<name1>[,<name2>...]` for one or more PDF columns of
    equal length."""
    series = [np.asarray(s, dtype=float) for s in series]
    x_mid = np.asarray(x_mid, dtype=float)
    if not series:
        raise ValueError("write_pdf_table: at least one series required")
    if any(len(s) != len(x_mid) for s in series):
        raise ValueError("write_pdf_table: series length mismatch")
    if names is None:
        names = ["pdf"] + [f"pdf{i + 1}" for i in range(1, len(series))]
    if len(names) != len(series):
        raise ValueError("write_pdf_table: one name per series required")
    columns = [_fmt_column(x_mid)] + [_fmt_column(s) for s in series]
    _write_csv(path, "x_mid," + ",".join(names), [columns])
