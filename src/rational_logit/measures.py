"""Discretized probability measures on the uniform grid of [0, 1].

A measure is stored as the vector of cell masses over N uniform cells
Omega_i = [(i-1)/N, i/N) (last cell closed), with midpoints (i-1/2)/N.
The piecewise-constant density (PDF) is N times the mass vector.

`ConfigError` and the checks of every config type live with `Grid`, the lowest.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "Grid",
    "GridMeasure",
    "uniform",
    "variational_distance",
    "pdf_values",
    "mean_and_std",
]

MASS_SUM_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid configuration; `problems` lists every violation, one
    `field: requirement (got value)` message each."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


def is_number(value) -> bool:
    """A finite real number that is not a bool. JSON loads true as a bool
    and accepts Infinity and NaN, none of which may set a parameter."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_fields(obj, rules, problems=()) -> None:
    """Raise one ConfigError of `problems` and `field: requirement (got
    value)` for each (field, requirement, test) of `rules` that `obj` fails."""
    problems = [*problems, *(f"{name}: {requirement} (got {getattr(obj, name)!r})"
                             for name, requirement, test in rules if not test(getattr(obj, name)))]
    if problems:
        raise ConfigError(problems)


def store_floats(obj, *names) -> None:
    """Store each named, checked field of the frozen `obj` that is not None as a float."""
    for name in names:
        if getattr(obj, name) is not None:
            object.__setattr__(obj, name, float(getattr(obj, name)))


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [0, 1] into n cells."""

    n: int = 500

    def __post_init__(self):
        check_fields(self, [("n", "integer >= 2 required", lambda v: is_integer(v) and v >= 2)])

    @property
    def cell_width(self) -> float:
        return 1.0 / self.n

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n


@dataclass(frozen=True)
class GridMeasure:
    """Probability masses over the cells of a Grid.

    Entries must be nonnegative and sum to 1 within MASS_SUM_TOL; evolution
    code is expected to preserve this (the constructor observes, it never
    silently renormalizes).
    """

    grid: Grid
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.grid.n,):
            raise ValueError(f"mass vector has shape {mass.shape}, grid has {self.grid.n} cells")
        if np.any(mass < 0.0) or np.any(np.isnan(mass)):
            raise ValueError("cell masses must be nonnegative")
        if abs(mass.sum() - 1.0) > MASS_SUM_TOL:
            raise ValueError(f"cell masses sum to {mass.sum()!r}, expected 1 within {MASS_SUM_TOL}")
        mass = mass.copy()
        mass.flags.writeable = False
        object.__setattr__(self, "mass", mass)


def uniform(grid: Grid) -> GridMeasure:
    """The uniform distribution: every cell mass equal to 1/N."""
    return GridMeasure(grid, np.full(grid.n, 1.0 / grid.n))


def variational_distance(mu: GridMeasure, nu: GridMeasure) -> float:
    """Variational norm ||mu - nu|| = sum_i |mu_i - nu_i|.

    For piecewise-constant densities on a shared grid the optimizing test
    function is the sign pattern of the cell mass differences, so the sup
    over |g| <= 1 collapses to the plain L1 cell-mass sum (max value 2).
    """
    if mu.grid != nu.grid:
        raise ValueError("variational_distance: grid mismatch")
    return float(np.abs(mu.mass - nu.mass).sum())


def pdf_values(mu: GridMeasure) -> np.ndarray:
    """Piecewise-constant density at cell midpoints: N * mass."""
    return mu.grid.n * mu.mass


def mean_and_std(mu: GridMeasure) -> tuple[float, float]:
    """Midpoint-quadrature mean and population standard deviation."""
    x = mu.grid.midpoints
    mean = float(x @ mu.mass)
    var = float((x * x) @ mu.mass) - mean * mean
    return mean, math.sqrt(max(var, 0.0))

