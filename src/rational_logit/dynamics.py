"""The heavy-tailed logit dynamic on the discretized simplex.

Semi-discrete evolution d mass_i / dt = weights_i(U(mu)) - mass_i, stepped
with fixed-step forward Euler. The softmax weights use the
kappa-exponential for positive noise eta, or the normalized positive-part
power max{U, 0}^(1/kappa) in the vanishing-noise limit. All weight
computations run in log space, so no finite u/eta can overflow them.

One Euler loop steps raw mass arrays: an (N,) vector under one
DynamicConfig, or a (B, N) stack of independent runs under a DynamicBatch,
whose rows share the grid and dt but each have their own kappa and eta (a
row may be a limit row). At N in the hundreds a step is bound by per-call
numpy overhead, so a stack of five runs steps in the time of two or three
single runs, and each row gets the same bits it would get on its own:
every sum runs along the last axis, in the same order. Each Euler step is
a convex combination of two simplex points, so the iterates stay on the
simplex by construction. Only recorded snapshots and final states are
wrapped (and validated) as GridMeasures.

A stationary state is the fixed point mass = weights(U(mass)), the same
from any start, so both solvers start from uniform. `solve_stationary`
runs the whole chain. Anderson mixing, clipping each iterate to the
simplex, runs first with a large mixing weight that gives up where it
stalls, then from the start again with a small one. A stage that stops
short returns why (the budget ran out, an update left no positive finite
mass, the limit weight map degenerated, or the large weight gave up), and
the next stage takes over: the small weight unless the budget ran out,
then the Euler `run_to_stationary`, the reference the tests compare
against; `fallback` lists why each stage stopped short. `run_until` and
the eta table keep Euler, and their start, because there the transient
is the object of study. `run_until` steps one run; the eta table steps
its limit reference and every eta together, as the rows of one stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .kexp import log_e_kappa
from .measures import (ConfigError, Grid, GridMeasure, check_fields, is_integer, is_number,
                       pdf_values, store_floats, uniform)

__all__ = [
    "LIMIT_NOISE",
    "DegenerateWeightsError",
    "DynamicConfig",
    "DynamicBatch",
    "weights",
    "euler_step",
    "run_until",
    "run_to_stationary",
    "StationarySolution",
    "solve_stationary",
    "eta_convergence_table",
]

# sentinel for the vanishing-noise limit equation (eta = 0)
LIMIT_NOISE = None

# Anderson mixing: number of past differences kept; the mixing weight on
# the fixed-point residual, large first and small where the large one gives
# up (at kappa = 0 the weight map's Lipschitz constant grows like 1/eta, and
# there the large weight diverges); the give-up rule of the large weight:
# max|f| past ANDERSON_GROWTH times its best so far, or that best not
# halved within ANDERSON_PATIENCE iterations; and the iteration cap before
# the Euler fallback, shared by both weights
ANDERSON_DEPTH = 5
ANDERSON_BETA = 0.5
ANDERSON_SAFE_BETA = 0.05
ANDERSON_GROWTH = 10.0
ANDERSON_PATIENCE = 50
ANDERSON_MAX_ITERATIONS = 2000

# rows x cells of one Euler stack in the eta table. Past about 64 KiB per
# float64 array, the allocator hands the step's freed temporaries back to
# the operating system, and the page faults of the next step cost more than
# batching saves (glibc malloc; measured at N = 2000 to 8000)
STACK_CELLS = 8192


class DegenerateWeightsError(RuntimeError):
    """Every utility value is <= 0 under the limit equation, so the
    normalized positive-part weights are undefined."""

    def __init__(self, step: int | None = None):
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(f"all utilities nonpositive under the vanishing-noise limit{where}")


@dataclass(frozen=True)
class DynamicConfig:
    """Dynamic parameters: shape kappa, noise eta (None = limit equation),
    Euler step dt, stationarity threshold delta, the grid, and max_steps,
    the iteration budget of every stationary solve."""

    kappa: float
    eta: float | None
    grid: Grid
    dt: float = 0.001
    delta: float = 1e-11
    max_steps: int = 1_000_000

    def __post_init__(self):
        check_fields(self, [
            ("kappa", "number in [0, 1] required", lambda v: is_number(v) and 0.0 <= v <= 1.0),
            ("kappa", "number in (0, 1] required by the vanishing-noise limit",
             lambda v: self.eta is not None or v != 0.0),
            ("eta", "positive number required",
             lambda v: v is None or (is_number(v) and v > 0.0)),
            ("grid", "Grid instance required", lambda v: isinstance(v, Grid)),
            # dt <= 1 keeps each Euler step a convex combination on the simplex
            ("dt", "number in (0, 1] required", lambda v: is_number(v) and 0.0 < v <= 1.0),
            ("delta", "positive number required", lambda v: is_number(v) and v > 0.0),
            ("max_steps", "integer >= 1 required", lambda v: is_integer(v) and v >= 1),
        ])
        store_floats(self, "kappa", "eta", "dt", "delta")


class DynamicBatch:
    """The DynamicConfigs of the rows of a (B, N) mass stack, stepped as one.

    The rows share the grid and dt; kappa and eta are per row, and a row may
    be a limit row (eta = None). Each config was checked when it was built,
    so the rows are only grouped here, once per run: each group is a run of
    consecutive rows sharing kappa and the noise kind, held as (row slice,
    kappa, eta), with eta None for limit rows and a (rows, 1) column
    otherwise.
    """

    def __init__(self, configs):
        self.configs = tuple(configs)
        if not self.configs:
            raise ValueError("a batch needs at least one row")
        first = self.configs[0]
        if any(c.grid != first.grid or c.dt != first.dt for c in self.configs):
            raise ValueError("the rows of a batch must share the grid and dt")
        self.grid, self.dt = first.grid, first.dt
        self.groups, start = [], 0
        for (kappa, limit), rows in itertools.groupby(self.configs,
                                                      key=lambda c: (c.kappa, c.eta is None)):
            rows = list(rows)
            eta = None if limit else np.array([[c.eta] for c in rows])
            self.groups.append((slice(start, start + len(rows)), kappa, eta))
            start += len(rows)


def weights(config: DynamicConfig | DynamicBatch, u) -> np.ndarray:
    """The weight map U -> w(U), row by row along the last axis.

    `config` is a DynamicConfig for an (N,) utility vector, or a
    DynamicBatch whose rows of a (B, N) stack each take their own kappa
    and eta. Positive noise: e_kappa(U_i/eta) / sum_j e_kappa(U_j/eta),
    the classical softmax at kappa = 0. Vanishing-noise limit:
    max{U_i, 0}^(1/kappa), normalized; a limit row with no positive
    utility raises DegenerateWeightsError. Computed in log space (shift
    each row by its max); a u that is not finite, or a u/eta (ln(u)/kappa
    in the limit) that would not be, raises ValueError before it divides.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(config, DynamicBatch):
        if u.shape != (len(config.configs), config.grid.n):
            raise ValueError(f"utility stack has shape {u.shape}, the batch has "
                             f"{len(config.configs)} rows of {config.grid.n} cells")
        groups, configs = config.groups, config.configs
    else:
        groups, configs = [(..., config.kappa, config.eta)], (config,)
    try:  # sqrt(u.u) bounds every |u|; vdot, unlike matmul, overflows without a numpy warning
        _check_range(configs, itertools.repeat(math.sqrt(np.vdot(u, u))))
    except ValueError:  # the bound may be loose: max |u| row by row decides
        _check_range(itertools.cycle(configs),
                     np.maximum(u.max(axis=-1), -u.min(axis=-1)).reshape(-1).tolist())
    if len(groups) == 1:
        _, kappa, eta = groups[0]
        logw = _log_weights(kappa, eta, u)
    else:
        logw = np.empty_like(u)
        for rows, kappa, eta in groups:
            logw[rows] = _log_weights(kappa, eta, u[rows])
    stack = u.ndim > 1  # keep a column per row; a vector's scalar is cheaper
    logw -= logw.max(axis=-1, keepdims=stack)
    w = np.exp(logw, out=logw)
    w /= w.sum(axis=-1, keepdims=stack)
    return w


def _check_range(configs, sizes):
    """Raise ValueError unless each size, a bound on a row's |u|, is finite,
    and so is its config's size/eta, or 745/kappa in the limit (|ln u| < 745)."""
    for c, size in zip(configs, sizes):
        if not math.isfinite(size):
            raise ValueError("utility vector must be finite")
        # Python floats divide to inf where numpy would warn
        if math.isinf(745.0 / c.kappa if c.eta is None else size / c.eta):
            raise ValueError("weight map overflow: eta is too small for these utilities "
                             "(u/eta, or ln(u)/kappa in the limit, is not finite)")


def _log_weights(kappa: float, eta, u: np.ndarray) -> np.ndarray:
    """Unshifted log weights of utility rows sharing kappa: the limit map
    when eta is None, else ln e_kappa(u/eta) for a scalar or column eta."""
    if eta is None:
        positive = u > 0.0
        if not positive.any(axis=-1).all():
            raise DegenerateWeightsError()
        logw = np.full_like(u, -np.inf)
        np.log(u, out=logw, where=positive)
        logw /= kappa
        return logw
    z = u / eta
    return z if kappa == 0.0 else log_e_kappa(kappa, z)


def euler_step(config: DynamicConfig | DynamicBatch, model, mass: np.ndarray) -> np.ndarray:
    """m' = (1 - dt) m + dt * weights(U(m)): an exact convex combination,
    so the simplex is preserved whenever dt <= 1. `config` and `mass` are a
    DynamicConfig and an (N,) vector, or a DynamicBatch and a (B, N) stack."""
    return (1.0 - config.dt) * mass + config.dt * weights(config, model.values(mass))


def _euler_iterates(config: DynamicConfig | DynamicBatch, model, mass: np.ndarray,
                    n_steps: int):
    """Yield the Euler iterates m_1, ..., m_n_steps of m_0 = mass, an (N,)
    vector or a (B, N) stack. A degenerate weight map is re-raised with the
    0-based index of the failing step."""
    for k in range(n_steps):
        try:
            mass = euler_step(config, model, mass)
        except DegenerateWeightsError:
            raise DegenerateWeightsError(step=k) from None
        yield mass


def record_steps(times, dt: float | None) -> dict[int, float]:
    """The Euler step k of each record time t = k dt, as {k: t} in step order
    ({} where dt is None, not known).

    One ConfigError lists every problem: a time that is not finite or is
    negative, no time after t = 0, and, where dt is known, a time off the
    step lattice (by more than 1e-9 max(1, t)), two times on one step, and a
    positive time on step 0 (that step is the t = 0 initial snapshot).
    """
    times = [float(t) for t in times]
    steps, problems = {}, [f"record time {t} is not a finite number" if not math.isfinite(t)
                           else f"record times must be >= 0 (got {t!r})"
                           for t in times if not 0.0 <= t < math.inf]
    if not any(t > 0.0 for t in times):
        problems.append(f"record times need a positive maximum (got {times!r})")
    for t in (t for t in times if dt is not None and 0.0 <= t < math.inf):
        k = round(t / dt)
        if abs(k * dt - t) > 1e-9 * max(1.0, t):
            problems.append(f"record time {t} is not a multiple of dt={dt}")
        elif k == 0 and t > 0.0:
            problems.append(f"record time {t} falls on step 0, the t = 0 initial snapshot")
        elif k in steps:
            problems.append(f"record times {steps[k]} and {t} both fall on step {k}")
        else:
            steps[k] = t
    if problems:
        raise ConfigError(problems)
    return dict(sorted(steps.items()))


def _recorded(config: DynamicConfig | DynamicBatch, model, mass: np.ndarray, record_times):
    """Yield (t, m_k) for each requested time t = k dt > 0, stepping
    m_0 = mass with Euler up to the last of them; `record_steps` maps the
    times to steps."""
    record = record_steps(record_times, config.dt)
    for k, mass in enumerate(_euler_iterates(config, model, mass, max(record)), start=1):
        if k in record:
            yield record[k], mass


def run_until(config: DynamicConfig, model, init: GridMeasure, record_times) -> tuple:
    """Integrate with fixed-step Euler to the last requested time. Returns
    the snapshots ((0.0, init), (t, measure), ...): the initial condition,
    then one per requested time t > 0, labelled with that time."""
    return ((0.0, init), *((t, GridMeasure(config.grid, mass))
                           for t, mass in _recorded(config, model, init.mass, record_times)))


@dataclass(frozen=True)
class StationarySolution:
    """A stationary solve: the final measure, whether it met the threshold
    delta, the iteration count of the solver that produced it (of both
    mixing weights, for Anderson mixing), that solver's name ("anderson" or
    "euler"), and why each stage before it stopped short, in stage order
    and joined by "; " (None when the first mixing weight met delta)."""

    final_measure: GridMeasure
    stationary: bool
    steps: int
    solver: str
    fallback: str | None = None


def run_to_stationary(config: DynamicConfig, model) -> StationarySolution:
    """Step from uniform until the per-step PDF change max_i N |mass'_i -
    mass_i| falls to the threshold delta; returns the post-step measure at
    the smallest such step k as the stationary solution of solver "euler",
    or the measure after config.max_steps steps as a nonstationary one."""
    n = config.grid.n
    mass = uniform(config.grid).mass
    for k, nxt in enumerate(_euler_iterates(config, model, mass, config.max_steps)):
        if n * float(np.abs(nxt - mass).max()) <= config.delta:
            return StationarySolution(GridMeasure(config.grid, nxt), True, k, "euler")
        mass = nxt
    return StationarySolution(GridMeasure(config.grid, mass), False, config.max_steps, "euler")


def _anderson(config: DynamicConfig, model, mass: np.ndarray, beta: float, budget: int,
              give_up: bool = False) -> tuple[np.ndarray | None, int, str | None]:
    """Anderson mixing (Walker & Ni 2011, type II) on f(m) = w(U(m)) - m,
    with mixing weight beta, for at most `budget` iterations.

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
            f = weights(config, model.values(mass)) - mass
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


def solve_stationary(config: DynamicConfig, model) -> StationarySolution:
    """The stationary state mass = weights(U(mass)), from the uniform start.

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
        mass, iterations, why = _anderson(config, model, start, beta, budget - spent, give_up)
        spent += iterations
        if mass is not None:
            return StationarySolution(GridMeasure(config.grid, mass), True, spent, "anderson",
                                      "; ".join(whys) or None)
        if spent == budget:
            whys.append(f"Anderson mixing missed delta within {budget} iterations")
            break
        whys.append(why)
    return replace(run_to_stationary(config, model), fallback="; ".join(whys))


@dataclass(frozen=True)
class ConvergenceRow:
    eta: float
    time: float
    error: float
    rate: float | None = None


def eta_convergence_table(base: DynamicConfig, model, init: GridMeasure,
                          etas, times) -> list[ConvergenceRow]:
    """Max-norm PDF error of positive-noise runs against the limit run.

    The limit-equation reference and every eta run step together, as the
    rows of one Euler stack (several stacks when the rows hold more than
    STACK_CELLS cells), and are compared at the requested times. Rows go
    from the largest eta down; the observed order between consecutive
    etas, log(err_a/err_b)/log(eta_a/eta_b), is on the row of the smaller.

    A ConfigError names `etas` unless they are one or more distinct
    numbers, in any order; `record_steps` states the rule for `times`.
    """
    etas = [float(e) for e in etas]
    if not etas or len(set(etas)) < len(etas):
        raise ConfigError([f"etas: one or more distinct numbers required (got {etas!r})"])
    etas, times = sorted(etas, reverse=True), sorted(float(t) for t in times)

    configs = [replace(base, eta=eta) for eta in (LIMIT_NOISE, *etas)]
    per_stack = max(1, STACK_CELLS // base.grid.n)
    pdfs: dict[float, list] = {t: [] for t in times}  # limit row first, then the etas
    for start in range(0, len(configs), per_stack):
        batch = DynamicBatch(configs[start:start + per_stack])
        stack = np.repeat(init.mass[None, :], len(batch.configs), axis=0)
        for t, masses in [(0.0, stack), *_recorded(batch, model, stack, times)]:
            if t in pdfs:
                pdfs[t].extend(pdf_values(GridMeasure(base.grid, mass)) for mass in masses)
    errors = {(eta, t): float(np.abs(pdf - ref).max())
              for t, (ref, *runs) in pdfs.items() for eta, pdf in zip(etas, runs)}

    rows = []
    for prev, eta in zip([None, *etas], etas):  # the largest eta has no previous one
        for t in times:
            err_a, err_b = errors.get((prev, t), 0.0), errors[(eta, t)]
            rate = None
            if err_a > 0.0 and err_b > 0.0:
                rate = math.log(err_a / err_b) / math.log(prev / eta)
            rows.append(ConvergenceRow(eta, t, err_b, rate))
    return rows
