"""Empirical statistics of the normalized catch data and moment-matching
parameter identification.

The objective is the sum of squared relative errors of the stationary mean
and standard deviation against the empirical targets. "Trial and error" is
made reproducible as a deterministic multi-level coordinate grid search.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dynamics import (DegenerateWeightsError, DynamicBatch, DynamicConfig, StationarySolution,
                       solve_stationary)
from .measures import check_fields, is_integer, is_number, mean_and_std
from .utility import CompetitionParams, CompetitionUtility

__all__ = [
    "FitSpec",
    "FitResult",
    "empirical_stats",
    "empirical_pdf",
    "fit_search",
]

FREE_PARAM_ORDER = ("a", "b", "eta", "kappa")
FIT_SHRINK = 0.5  # each fit level's box is this share of the last one's width


def empirical_stats(values: np.ndarray) -> tuple[float, float]:
    """Population mean and standard deviation of the pooled normalized values."""
    if values.size == 0:
        raise ValueError("empirical_stats: empty sample")
    return float(values.mean()), float(values.std())


def empirical_pdf(values: np.ndarray, bins: int = 20) -> np.ndarray:
    """Histogram density of values in [0, 1] over uniform bins of [0, 1]
    (count/total/binwidth); the right edge 1.0 falls into the last bin."""
    if bins < 2:
        raise ValueError("empirical_pdf: bins must be >= 2")
    if values.size == 0:
        raise ValueError("empirical_pdf: empty sample")
    if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails too
        raise ValueError("empirical_pdf: values must lie in [0, 1]")
    idx = np.minimum((values * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(float)
    return counts / values.size * bins


@dataclass(frozen=True)
class FitSpec:
    """The search: the box, a [lo, hi] bound for each free parameter among
    {a, b, eta, kappa}, and the schedule of the multi-level grid. Everything
    else comes from the base DynamicConfig and CompetitionParams given to
    fit_search, ranges included; an empty box is the base run."""

    bounds: dict = field(default_factory=dict)
    levels: int = 2
    points_per_dim: int = 5

    def __post_init__(self):
        problems = []
        for name, pair in self.bounds.items() if isinstance(self.bounds, dict) else ():
            if name not in FREE_PARAM_ORDER:
                problems.append(f"bounds.{name}: unknown key")
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(map(is_number, pair))):
                problems.append(f"bounds.{name}: [lo, hi] pair required (got {pair!r})")
            elif not pair[0] < pair[1]:
                problems.append(f"bounds.{name}: lo < hi required (got {pair!r})")
        check_fields(self, [
            ("bounds", "mapping of names to [lo, hi] pairs required",
             lambda v: isinstance(v, dict)),
            ("levels", "integer >= 0 required", lambda v: is_integer(v) and v >= 0),
            ("points_per_dim", "integer >= 2 required", lambda v: is_integer(v) and v >= 2),
        ], problems)
        object.__setattr__(self, "bounds", {p: tuple(map(float, self.bounds[p]))
                                            for p in FREE_PARAM_ORDER if p in self.bounds})


def with_point(section, point: dict):
    """`section` with each entry of the fit point `point` that names one of its fields."""
    return replace(section, **{f.name: point[f.name] for f in fields(section) if f.name in point})


@dataclass(frozen=True)
class FitResult:
    """The best point, its objective and moments, every evaluation as
    (assignment, objective or None, why or None), and how the distinct
    points converged: `solvers` counts them by the solver that produced
    their state (a point whose Euler fallback degenerated has none), and
    `fallback` counts those whose first mixing weight stopped short."""

    best: dict
    objective: float
    evaluations: tuple
    model_moments: tuple[float, float]
    solvers: dict
    fallback: int

    @property
    def evaluation_count(self) -> int:
        return len(self.evaluations)


def fit_search(spec: FitSpec, target: tuple[float, float], base: DynamicConfig,
               params: CompetitionParams) -> FitResult:
    """Deterministic multi-level grid search over the free parameters, the
    keys of spec.bounds.

    Each level evaluates the Cartesian product of points_per_dim values per
    free parameter, then shrinks the bounds around the best point by
    FIT_SHRINK (clipped to the original bounds). Ties break toward the
    smaller parameter vector in the order (a, b, eta, kappa), which the
    lexicographic enumeration order guarantees with a strict improvement
    test. An empty box is the base point alone, solved once.

    A point sets each free parameter in `params` or `base`, whichever holds
    it, so every other setting, max_steps included, is the base run's. Each
    level builds all its points before it solves any, so a point that
    CompetitionParams or DynamicConfig rejects (a negative a, kappa = 0
    under the limit equation) raises their ConfigError before any solve. A
    point whose solve is not stationary, or whose limit weight map
    degenerates, is recorded as (assignment, None, why). A point equal to
    one solved earlier in the search, such as a level's centre, is not
    solved again: its evaluation repeats the earlier outcome. A level's
    other distinct points are solved together, as the rows of one
    `solve_stationary` batch on one model whose a and b are per row; each
    gets the outcome it would get on its own.
    """
    bounds = original = spec.bounds  # in FREE_PARAM_ORDER
    free = tuple(bounds)
    solved = {}  # (params, config) of each point solved: its solve's outcome

    best_assignment: dict = {}
    best_obj = np.inf
    best_moments = (np.nan, np.nan)
    evaluations = []

    for _level in range(spec.levels + 1 if free else 1):
        axes = [np.linspace(bounds[p][0], bounds[p][1], spec.points_per_dim) for p in free]
        # the whole level, built before any point is solved
        assignments = [dict(zip(free, map(float, combo))) for combo in itertools.product(*axes)]
        points = [(a, (with_point(params, a), with_point(base, a))) for a in assignments]
        # a point met again, in this level or an earlier one, is not solved again
        new = [key for key in dict.fromkeys(key for _, key in points) if key not in solved]
        if new:
            model = CompetitionUtility(base.grid, [point for point, _ in new])
            solved.update(zip(new, solve_stationary(DynamicBatch(c for _, c in new), model)))
        for assignment, (point, config) in points:
            obj, moments, why = _outcome(solved[point, config], config, target)
            evaluations.append((assignment, obj, why))
            if obj is not None and obj < best_obj:
                best_obj, best_assignment, best_moments = obj, assignment, moments
        if not np.isfinite(best_obj):
            raise RuntimeError("fit_search: every evaluation failed")
        # shrink around the current best, staying inside the original box
        new_bounds = {}
        for p in free:
            lo0, hi0 = original[p]
            half = (bounds[p][1] - bounds[p][0]) * FIT_SHRINK / 2.0
            center = best_assignment[p]
            new_bounds[p] = (max(lo0, center - half), min(hi0, center + half))
        bounds = new_bounds

    best = dict(best_assignment)  # the free parameters first, then the fixed ones
    for name in FREE_PARAM_ORDER:
        best.setdefault(name, getattr(params if hasattr(params, name) else base, name))
    solutions = [s for s in solved.values() if isinstance(s, StationarySolution)]
    return FitResult(best, float(best_obj), tuple(evaluations), best_moments,
                     dict(Counter(s.solver for s in solutions)),
                     len(solved) - sum(s.fallback is None for s in solutions))


def _outcome(solution, config: DynamicConfig, target: tuple[float, float]) -> tuple:
    """(objective, moments, None) of one point's solve, or (None, None, why)
    where it missed delta or its limit weight map degenerated. The objective
    is ((m - m_hat)/m_hat)^2 + ((s - s_hat)/s_hat)^2 of the moments (m, s)."""
    if isinstance(solution, DegenerateWeightsError):
        return None, None, repr(solution)
    if not solution.stationary:
        return None, None, (f"no stationary state within {config.max_steps} steps "
                            f"({solution.fallback})")
    mean, std = mean_and_std(solution.final_measure)
    m_hat, s_hat = target
    return ((mean - m_hat) / m_hat) ** 2 + ((std - s_hat) / s_hat) ** 2, (mean, std), None
