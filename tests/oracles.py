"""Reference code the tests check the library against.

The CLI and the scripts run none of it: the one-row calls of the
library's batch-only weight map, Euler step and `run_until`, the
kappa-exponential e_kappa and its relatives (written on the library's
`log_e_kappa`), two ways to build a GridMeasure, the dense bilinear
utility with its sampled Lipschitz ratio, the dense competition utility,
the lstsq form of Anderson mixing, the one-row Anderson mixing and
stationary solve that each row of the library's stacks must reproduce bit
for bit, and the fit objective of one point solved on its own.
"""

import math
from collections import deque
from dataclasses import replace

import numpy as np

from rational_logit.dynamics import (ANDERSON_BETA, ANDERSON_DEPTH, ANDERSON_GROWTH,
                                     ANDERSON_MAX_ITERATIONS, ANDERSON_PATIENCE,
                                     ANDERSON_SAFE_BETA, DegenerateWeightsError, DynamicBatch,
                                     StationarySolution, euler_step, run_to_stationary,
                                     run_until, weights)
from rational_logit.kexp import log_e_kappa
from rational_logit.measures import Grid, GridMeasure, mean_and_std, uniform, variational_distance
from rational_logit.utility import CompetitionUtility


def weights_row(config, u) -> np.ndarray:
    """`weights` of one (N,) utility vector under one config, as a one-row stack."""
    return weights(DynamicBatch([config]), np.asarray(u)[None])[0]


def euler_row(config, model, mass) -> np.ndarray:
    """`euler_step` of one (N,) mass vector under one config, as a one-row stack."""
    return euler_step(DynamicBatch([config]), model, np.asarray(mass)[None])[0]


def run_row(config, model, record_times) -> list:
    """The snapshots of `run_until` on a batch of one config."""
    [snapshots] = run_until(DynamicBatch([config]), model, record_times)
    return snapshots


def log_e(kappa: float, z):
    """ln e_kappa(z) of a scalar or an array of any shape, kappa in [0, 1]:
    the identity at kappa = 0, else the library's `log_e_kappa`."""
    z = np.asarray(z, dtype=float)
    if kappa == 0.0:
        out = z.copy()
    else:
        out = log_e_kappa(kappa, z.reshape(-1)).reshape(z.shape)
    return out if out.ndim else float(out)


def e_kappa(kappa: float, z):
    """e_kappa(z) = exp(ln e_kappa(z)); strictly positive, and may overflow
    to +inf at kappa = 0 for extreme z."""
    with np.errstate(over="ignore"):
        return np.exp(log_e(kappa, z))


def d_e_kappa(kappa: float, z):
    """Derivative of e_kappa: e_kappa(z) / sqrt(kappa^2 z^2 + 1)."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = e_kappa(kappa, z) / np.sqrt((kappa * z) ** 2 + 1.0)
    return out if out.ndim else float(out)


def scaled_limit_residual(kappa: float, eta: float, u: float) -> float:
    """| (eta/(2 kappa))^(1/kappa) * e_kappa(u/eta) - u^(1/kappa) |.

    Quantifies how fast the eta-scaled kappa-exponential approaches the pure
    power u^(1/kappa) as the noise eta vanishes; the residual is O(eta).
    Evaluated through the exact closed form
    (u/2 + sqrt(u^2/4 + eta^2/(4 kappa^2)))^(1/kappa), which avoids the
    overflow of e_kappa(u/eta) for tiny eta.
    """
    if kappa == 0.0:
        raise ValueError("scaled_limit_residual: undefined at kappa = 0")
    if eta <= 0.0 or u <= 0.0:
        raise ValueError("scaled_limit_residual: requires eta > 0 and u > 0")
    scaled = (u / 2.0 + np.sqrt(u * u / 4.0 + eta * eta / (4.0 * kappa * kappa))) ** (1.0 / kappa)
    return abs(scaled - u ** (1.0 / kappa))


def from_masses(grid: Grid, raw) -> GridMeasure:
    """Normalize a vector of nonnegative weights into a GridMeasure.

    Rejects negative entries and the all-zero vector (degenerate weights).
    """
    raw = np.asarray(raw, dtype=float)
    if np.any(raw < 0.0) or np.any(np.isnan(raw)):
        raise ValueError("from_masses: entries must be nonnegative")
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("from_masses: degenerate all-zero weight vector")
    return GridMeasure(grid, raw / total)


def refine(mu: GridMeasure, factor: int) -> GridMeasure:
    """Split every cell into `factor` equal subcells, preserving the density.

    Lets measures on different grids be compared exactly on a common
    refinement (no interpolation error for piecewise-constant densities).
    """
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"refine: factor must be a positive integer, got {factor!r}")
    fine = np.repeat(mu.mass / factor, factor)
    return GridMeasure(Grid(mu.grid.n * int(factor)), fine)


class BilinearUtility:
    """U_j = sum_k f(x_j, x_k) * mass_k on the midpoint lattice (cell width
    absorbed in the masses), with f tabulated once into a kernel matrix:
    U(x; mu) = integral of f(x, y) mu(dy) by the midpoint rule, the dense
    reference the fast utility models are compared against. It maps an
    (N,) mass vector, or each row of a (B, N) stack, and every row shares
    the kernel, so it is its own model of any rows."""

    def __init__(self, grid: Grid, f):
        x = grid.midpoints
        kernel = np.array(f(x[:, None], x[None, :]), dtype=float)
        n = grid.n
        if kernel.shape != (n, n):
            raise ValueError(f"kernel matrix has shape {kernel.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel matrix entries must be finite")
        kernel.flags.writeable = False
        self.grid = grid
        self._kernel = kernel

    def values(self, mass: np.ndarray) -> np.ndarray:
        if np.shape(mass)[-1:] != (self.grid.n,) or np.ndim(mass) > 2:
            raise ValueError(f"BilinearUtility: grid mismatch, mass has shape {np.shape(mass)}")
        return (self._kernel @ np.transpose(mass)).T

    def rows(self, index):
        return self


def lipschitz_ratio_sample(model, mu: GridMeasure, nu: GridMeasure) -> float:
    """max_j |U_j(mu) - U_j(nu)| / ||mu - nu||, one sampled ratio.

    The tests draw many (mu, nu) pairs and check the ratios stay below an
    explicit bound for each model.
    """
    dist = variational_distance(mu, nu)
    if dist == 0.0:
        raise ValueError("lipschitz_ratio_sample: measures must differ")
    return float(np.max(np.abs(model.values(mu.mass) - model.values(nu.mass)))) / dist


def ramp(x, y, epsilon: float):
    """The award ramp clip((y - x + epsilon)/epsilon, 0, 1): the regularized
    indicator 1_{y > x} of the competition utility's tail."""
    return np.clip((y - x + epsilon) / epsilon, 0.0, 1.0)


def ramp_tail_mass(grid: Grid, mu: GridMeasure, x: float, epsilon: float) -> float:
    """Regularized upper-tail mass of mu above x, the scalar reference of
    CompetitionUtility's tail: the sharp indicator 1_{(x, 1]} is replaced by
    the ramp at the cell midpoints."""
    if epsilon <= 0.0:
        raise ValueError("ramp_tail_mass: epsilon must be positive")
    return float(ramp(x, grid.midpoints, epsilon) @ mu.mass)


class DenseCompetition:
    """The competition utility from a dense reward matrix and a dense ramp
    matrix, whose row j is ramp_tail_mass's ramp at x_j: the oracle of
    CompetitionUtility's prefix-sum and FFT paths."""

    def __init__(self, grid: Grid, params):
        a, b, c = params.a, params.b, params.c
        eps = params.resolve_epsilon(grid)
        self.params = params
        self._reward = BilinearUtility(grid, lambda x, y: -a * x ** 2 + b * np.abs(x - y) ** c)
        self._ramp = BilinearUtility(grid, lambda x, y: ramp(x, y, eps))

    def values(self, mass):
        tail = self._ramp.values(mass)
        return self._reward.values(mass) + self.params.d * np.maximum(self.params.alpha - tail, 0.0)


def anderson_lstsq(config, model, mass: np.ndarray, beta: float,
                   max_iterations: int) -> tuple[np.ndarray | None, int, str | None]:
    """Anderson mixing (Walker & Ni 2011, type II) on f(m) = w(U(m)) - m,
    with mixing weight beta, the histories in deques and a fresh lstsq on
    the stacked dF columns every iteration: the reference of the library's
    ring-buffer, Gram-matrix `dynamics._anderson` without its give-up rule,
    with the same depth, clipping and messages.

    Returns (mass, iterations, None) at the first iterate with N max|f|
    <= delta. Every update is clipped to >= 0 and renormalized, so each
    iterate stays on the simplex; a run that stops short returns (None,
    iterations so far, why) when the budget runs out or an update leaves
    no positive finite mass.
    """
    n = config.grid.n
    dx, df = deque(maxlen=ANDERSON_DEPTH), deque(maxlen=ANDERSON_DEPTH)
    prev = None
    for k in range(max_iterations + 1):
        f = weights_row(config, model.values(mass)) - mass
        if n * float(np.max(np.abs(f))) <= config.delta:
            return mass, k, None
        if k == max_iterations:
            return None, k, f"Anderson mixing missed delta within {max_iterations} iterations"
        if prev is not None:
            dx.append(mass - prev[0])
            df.append(f - prev[1])
        prev = mass, f
        nxt = mass + beta * f
        if dx:
            dfm = np.column_stack(df)
            gamma = np.linalg.lstsq(dfm, f, rcond=None)[0]
            nxt -= (np.column_stack(dx) + beta * dfm) @ gamma
        nxt = np.maximum(nxt, 0.0)
        total = float(nxt.sum())
        if not (math.isfinite(total) and total > 0.0):
            return None, k + 1, f"Anderson update {k + 1} left no positive finite mass"
        mass = nxt / total


def anderson_single(config, model, mass: np.ndarray, beta: float, budget: int,
                    give_up: bool = False) -> tuple[np.ndarray | None, int, str | None]:
    """Anderson mixing (Walker & Ni 2011, type II) on f(m) = w(U(m)) - m of
    one (N,) vector, with mixing weight beta, for at most `budget`
    iterations: the reference of each row of the library's stacked
    `dynamics._anderson`, which must give its bits, iterations and reasons.

    Returns (mass, iterations, None) at the first iterate with N max|f| <=
    delta. The last ANDERSON_DEPTH differences of f and of g = m + beta f
    are the rows of two (depth, N) ring buffers, each new row written in
    place over the oldest. The mixing coefficients solve the normal
    equations of min |f - gamma @ dF|: the depth x depth Gram matrix
    dF dF^T gains one row and column per iteration, so no iteration
    forms or factors an N x depth matrix. The normal equations square the
    condition number, so a singular Gram matrix falls back to lstsq on
    dF^T. Every update is clipped to >= 0 and renormalized, so each
    iterate stays on the simplex.

    A run that stops short returns (None, iterations so far, why): when
    the budget runs out, an update leaves no positive finite mass, or the
    limit weight map degenerates at an iterate; with give_up, also when
    max|f| grows past ANDERSON_GROWTH times its best, or that best has not
    halved within ANDERSON_PATIENCE iterations.
    """
    n = config.grid.n
    df, dg = np.empty((ANDERSON_DEPTH, n)), np.empty((ANDERSON_DEPTH, n))
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
    prev = None  # f and g of the previous iterate
    best = mark = math.inf  # the smallest max|f| so far, and its value when it last halved
    halved = 0  # the iteration at which it last halved
    for k in range(budget + 1):
        try:
            f = weights_row(config, model.values(mass)) - mass
        except DegenerateWeightsError as exc:
            return None, k, f"{exc} at Anderson iterate {k}"
        residual = float(np.abs(f).max())
        if n * residual <= config.delta:
            return mass, k, None
        if k == budget:
            return None, k, f"Anderson mixing missed delta within {budget} iterations"
        if give_up:
            best = min(best, residual)
            if best <= 0.5 * mark:
                mark, halved = best, k
            if residual > ANDERSON_GROWTH * best:
                return None, k, f"Anderson residual grew past {ANDERSON_GROWTH:g} times its best"
            if k - halved >= ANDERSON_PATIENCE:
                return None, k, f"Anderson residual stalled for {ANDERSON_PATIENCE} iterations"
        g = mass + beta * f
        nxt = g
        if prev is not None:
            row = (k - 1) % ANDERSON_DEPTH  # the oldest row once the buffers are full
            np.subtract(f, prev[0], out=df[row])
            np.subtract(g, prev[1], out=dg[row])
            m = min(k, ANDERSON_DEPTH)  # rows in use
            gram[row, :m] = gram[:m, row] = df[:m] @ df[row]
            try:
                gamma = np.linalg.solve(gram[:m, :m], df[:m] @ f)
            except np.linalg.LinAlgError:
                gamma = np.linalg.lstsq(df[:m].T, f, rcond=None)[0]
            nxt = g - gamma @ dg[:m]
        prev = f, g
        nxt = np.maximum(nxt, 0.0)
        total = float(nxt.sum())
        if not (math.isfinite(total) and total > 0.0):
            return None, k + 1, f"Anderson update {k + 1} left no positive finite mass"
        mass = nxt / total


def solve_stationary_single(config, model) -> StationarySolution:
    """The stationary state mass = weights(U(mass)) of one run, from the
    uniform start, stage by stage on `anderson_single`: the reference of
    each row of the library's batch `solve_stationary`.

    Anderson mixing runs at ANDERSON_BETA under the give-up rule, then,
    where that stops short, from the start again at ANDERSON_SAFE_BETA. The
    stages share min(config.max_steps, ANDERSON_MAX_ITERATIONS) iterations
    and stop at N max|w(U(m)) - m| <= delta, a test 1/dt stricter than the
    per-step Euler test of `run_to_stationary`, which runs with the full
    max_steps where no stage meets it. `fallback` lists why each stage that
    ran stopped short, the whole budget where it ran out.
    """
    budget = min(config.max_steps, ANDERSON_MAX_ITERATIONS)
    start, spent, whys = uniform(config.grid).mass, 0, []
    for beta, give_up in ((ANDERSON_BETA, True), (ANDERSON_SAFE_BETA, False)):
        mass, iterations, why = anderson_single(config, model, start, beta, budget - spent,
                                                give_up)
        spent += iterations
        if mass is not None:
            return StationarySolution(GridMeasure(config.grid, mass), True, spent, "anderson",
                                      "; ".join(whys) or None)
        if spent == budget:
            whys.append(f"Anderson mixing missed delta within {budget} iterations")
            break
        whys.append(why)
    return replace(run_to_stationary(config, model), fallback="; ".join(whys))


def fit_objective(params, config, target: tuple[float, float]
                  ) -> tuple[float, tuple[float, float], StationarySolution]:
    """((m - m_hat)/m_hat)^2 + ((s - s_hat)/s_hat)^2, the moments (m, s)
    and the solve they come from, for one parameter point solved on its own
    by `solve_stationary_single`: the reference of each point of the
    library's `fit_search`. A solve that missed delta is returned as it is
    (`stationary` false)."""
    solution = solve_stationary_single(config, CompetitionUtility(config.grid, params))
    mean, std = mean_and_std(solution.final_measure)
    m_hat, s_hat = target
    return ((mean - m_hat) / m_hat) ** 2 + ((std - s_hat) / s_hat) ** 2, (mean, std), solution
