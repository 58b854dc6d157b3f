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
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from itertools import repeat
from pathlib import Path

import numpy as np

from .calibration import FitSpec
from .dynamics import LIMIT_NOISE, DynamicConfig, record_steps
from .measures import ConfigError, Grid, is_number, pdf_values
from .utility import CompetitionParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "bundled_catches_path",
    "load_catches",
    "collect_problems",
    "load_run_config",
    "write_trajectory_csv",
    "write_convergence_csv",
    "write_pdf_table",
]


LIMIT_SPELLING = "limit"  # JSON's spelling of LIMIT_NOISE, the vanishing-noise limit


def _fmt(value: float) -> str:
    # shortest decimal that round-trips the exact double
    return repr(float(value))


def bundled_catches_path() -> Path:
    """Path of the shipped competition dataset."""
    return Path(resources.files("rational_logit").joinpath("data/catches.csv"))


def load_catches(path) -> np.ndarray:
    """Parse a `year,catch` CSV of at least one record and return each catch
    divided by its own year's maximum, in row order."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != "year,catch":
        raise ValueError(f"{path}: expected header 'year,catch'")
    rows, maxima = [], {}
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
        rows.append((year, catch))
        maxima[year] = max(maxima.get(year, 0), catch)
    if not rows:
        raise ValueError(f"{path}: no catch records")
    for year, year_max in maxima.items():
        if year_max == 0:
            raise ValueError(f"{path}: year {year}: maximum catch is 0, normalization undefined")
    return np.array([catch / maxima[year] for year, catch in rows])


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
    record_times: tuple = (1.0, 10.0)
    fit: FitSpec | None = None
    resolved: dict = field(default_factory=dict, repr=False)


def collect_problems(problems: list, prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs); if it raises a ConfigError, None, and each of
    its problems is added to `problems` after `prefix`."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        problems += [prefix + p for p in exc.problems]
        return None


def _keys(cls, *skip) -> dict:
    """The fields of a config type, with their defaults (None if none)."""
    return {f.name: (f.default_factory() if f.default_factory is not MISSING
                     else None if f.default is MISSING else f.default)
            for f in fields(cls) if f.name not in skip}


def _object(node, path: str, keys, problems: list) -> dict:
    """The entries of the JSON object `node` at `path` whose key is among
    `keys`; a node that is no object, and each other key, is a problem."""
    if not isinstance(node, dict):
        problems.append(f"{path}: JSON object required (got {node!r})")
        return {}
    problems += [f"{path}.{key}: unknown key" for key in node if key not in keys]
    return {key: value for key, value in node.items() if key in keys}


def load_run_config(path) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Each section builds the type that holds its fields, defaults and range
    rules; every problem is reported at once, under its dotted path, and a
    key the schema does not name is one too. Every accepted value, defaults
    included, is recorded in `RunConfig.resolved`.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError([f"top level: JSON object required (got {doc!r})"])
    # each section's keys and defaults
    schema = {"grid": _keys(Grid), "dynamic": _keys(DynamicConfig, "grid"),
              "utility": _keys(CompetitionParams), "fit": _keys(FitSpec)}
    problems = [f"{k}: unknown key" for k in doc if k not in (*schema, "record_times")]
    sections = {name: {**keys, **_object(doc.get(name, {}), name, keys, problems)}
                for name, keys in schema.items()}

    grid = collect_problems(problems, "grid.", Grid, **sections["grid"])
    eta = sections["dynamic"]["eta"]
    if eta is None or (isinstance(eta, str) and eta != LIMIT_SPELLING):
        problems.append(f'dynamic.eta: positive number or "{LIMIT_SPELLING}" required '
                        f'(got {eta!r})')
        eta = 1.0  # stands in to check the rest
    eta = LIMIT_NOISE if eta == LIMIT_SPELLING else eta
    # a grid that failed is reported under grid.; Grid() stands in to check the rest
    dynamic = collect_problems(problems, "dynamic.", DynamicConfig,
                               **{**sections["dynamic"], "eta": eta, "grid": grid or Grid()})
    params = collect_problems(problems, "utility.", CompetitionParams, **sections["utility"])
    # dt, or None where it breaks its own rule: a stand-in tells where dynamic failed
    dt = getattr(dynamic or collect_problems([], "", DynamicConfig, 1.0, 1.0, Grid(),
                                             sections["dynamic"]["dt"]), "dt", None)
    record_times = doc.get("record_times", list(RunConfig.record_times))
    if not (isinstance(record_times, list) and all(map(is_number, record_times))):
        problems.append(f"record_times: list of numbers required (got {record_times!r})")
    else:
        collect_problems(problems, "record_times: ", record_steps, record_times, dt)

    fit = None
    if "fit" in doc:
        fit = collect_problems(problems, "fit.", FitSpec, **sections["fit"])
        if fit is not None:  # each type's range rule is an interval: check the box's corners
            for side in (0, 1):  # every free parameter at its lower, then its upper bound
                corner = {p: pair[side] for p, pair in fit.bounds.items()}
                for section, names in ((dynamic, ("eta", "kappa")), (params, ("a", "b"))):
                    if section is not None:
                        collect_problems(problems, "fit.bounds.", replace, section,
                                         **{p: corner[p] for p in names if p in corner})
    if problems:
        raise ConfigError(problems)

    resolved = {**{name: {key: value for key, value in sections[name].items() if value is not None}
                   for name in ("grid", "dynamic", "utility")},
                "record_times": record_times}
    if fit is not None:
        resolved["fit"] = sections["fit"]
    # as a manifest records it, so that copy loads to an equal RunConfig
    return RunConfig(dynamic, params, tuple(float(t) for t in record_times), fit,
                     json.loads(json.dumps(resolved)))


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


def write_trajectory_csv(path, snapshots) -> None:
    """Rows `time,x_mid,pdf` for every (t, measure) snapshot and cell, one
    block per snapshot."""
    x_mid = functools.cache(lambda grid: _fmt_column(grid.midpoints))
    blocks = ((repeat(_fmt(t)), x_mid(mu.grid), _fmt_column(pdf_values(mu)))
              for t, mu in snapshots)
    _write_csv(path, "time,x_mid,pdf", blocks)


def write_convergence_csv(path, rows) -> None:
    """Rows `eta,time,error,rate`; the rate field is empty where undefined."""
    columns = [[_fmt(row.eta) for row in rows], [_fmt(row.time) for row in rows],
               [_fmt(row.error) for row in rows],
               ["" if row.rate is None else _fmt(row.rate) for row in rows]]
    _write_csv(path, "eta,time,error,rate", [columns])


def write_pdf_table(path, x_mid, series, names) -> None:
    """Rows `x_mid,<name1>[,<name2>...]` for one or more named PDF columns
    of equal length."""
    series = [np.asarray(s, dtype=float) for s in series]
    x_mid = np.asarray(x_mid, dtype=float)
    if not series:
        raise ValueError("write_pdf_table: at least one series required")
    if any(len(s) != len(x_mid) for s in series):
        raise ValueError("write_pdf_table: series length mismatch")
    if len(names) != len(series):
        raise ValueError("write_pdf_table: one name per series required")
    columns = [_fmt_column(x_mid)] + [_fmt_column(s) for s in series]
    _write_csv(path, "x_mid," + ",".join(names), [columns])
