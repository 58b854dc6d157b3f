"""Utility models U(x; mu) evaluated at cell midpoints.

Two concrete models, each with `values(mass)` taking the (N,) cell-mass
vector and returning the (N,) utility vector:

* BilinearUtility: U(x; mu) = integral of f(x, y) mu(dy), midpoint rule, so
  one N x N kernel matrix times the mass vector. The dense reference the
  tests compare other models against.
* CompetitionUtility: quadratic harvesting cost, pairwise difference reward,
  and an award for the upper-alpha tail, the tail mass regularized by a ramp
  of width epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import Grid, GridMeasure, variational_distance

__all__ = [
    "BilinearUtility",
    "CompetitionParams",
    "CompetitionUtility",
    "ramp_tail_mass",
    "lipschitz_ratio_sample",
]


def ramp_tail_mass(grid: Grid, mu: GridMeasure, x: float, epsilon: float) -> float:
    """Regularized upper-tail mass of mu above x.

    The sharp indicator 1_{(x, 1]} is replaced by the ramp
    clip((y - x + epsilon)/epsilon, 0, 1) evaluated at cell midpoints.
    """
    if epsilon <= 0.0:
        raise ValueError("ramp_tail_mass: epsilon must be positive")
    ramp = np.clip((grid.midpoints - x + epsilon) / epsilon, 0.0, 1.0)
    return float(ramp @ mu.mass)


@dataclass(frozen=True)
class CompetitionParams:
    """Parameters of the fishing-competition utility.

    a: quadratic cost weight, b: pairwise difference reward weight,
    c: difference exponent, d: award weight, alpha: awarded upper-tier
    fraction, epsilon: ramp width (None means the grid default 1/N).
    """

    a: float = 0.27
    b: float = 0.23
    c: float = 1.0
    d: float = 1.0
    alpha: float = 0.2
    epsilon: float | None = None

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"CompetitionParams: {name} must be finite and >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("CompetitionParams: alpha must lie in (0, 1)")
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("CompetitionParams: epsilon must be finite and positive")

    def resolve_epsilon(self, grid: Grid) -> float:
        return self.epsilon if self.epsilon is not None else grid.cell_width


class BilinearUtility:
    """U_j = sum_k f(x_j, x_k) * mass_k on the midpoint lattice (cell width
    absorbed in the masses), with f tabulated once into a kernel matrix."""

    def __init__(self, grid: Grid, f):
        x = grid.midpoints
        kernel = np.array(f(x[:, None], x[None, :]), dtype=float)
        n = grid.n_cells
        if kernel.shape != (n, n):
            raise ValueError(f"kernel matrix has shape {kernel.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel matrix entries must be finite")
        kernel.flags.writeable = False
        self.grid = grid
        self._kernel = kernel

    def values(self, mass: np.ndarray) -> np.ndarray:
        if np.shape(mass) != (self.grid.n_cells,):
            raise ValueError(f"BilinearUtility: grid mismatch, mass has shape {np.shape(mass)}")
        return self._kernel @ mass


class CompetitionUtility:
    """Cost + difference reward + regularized award, precomputed matrices.

    Each evaluation is two matrix-vector products: the bilinear part
    f(x, y) = -a x^2 + b |x - y|^c, then d * max(alpha - tail_mass, 0)
    with the tail mass a ramp-matrix product. Both N x N matrices are
    built in place, so the build holds no third one.
    """

    def __init__(self, grid: Grid, params: CompetitionParams):
        self.grid = grid
        self.params = params
        self.epsilon = params.resolve_epsilon(grid)
        x = grid.midpoints
        kernel = x[:, None] - x[None, :]
        if params.c == 0.0:
            kernel.fill(1.0)  # |0|^0 taken as 1, so c = 0 is a constant reward
        else:
            np.abs(kernel, out=kernel)
            kernel **= params.c
        kernel *= params.b
        kernel += -params.a * x[:, None] ** 2
        ramp = x[None, :] - x[:, None]
        ramp += self.epsilon
        ramp /= self.epsilon
        np.clip(ramp, 0.0, 1.0, out=ramp)
        kernel.flags.writeable = False
        ramp.flags.writeable = False
        self._kernel = kernel
        self._ramp = ramp

    def values(self, mass: np.ndarray) -> np.ndarray:
        base = self._kernel @ mass
        tail = self._ramp @ mass
        return base + self.params.d * np.maximum(self.params.alpha - tail, 0.0)


def lipschitz_ratio_sample(model, mu: GridMeasure, nu: GridMeasure) -> float:
    """max_j |U_j(mu) - U_j(nu)| / ||mu - nu||, one sampled ratio.

    The test suite draws many (mu, nu) pairs and checks the ratios stay
    below an explicit bound for each implemented model.
    """
    dist = variational_distance(mu, nu)
    if dist == 0.0:
        raise ValueError("lipschitz_ratio_sample: measures must differ")
    return float(np.max(np.abs(model.values(mu.mass) - model.values(nu.mass)))) / dist
