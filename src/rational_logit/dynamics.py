"""The heavy-tailed logit dynamic on the discretized simplex.

Semi-discrete evolution d mass_i / dt = weights_i(U(mu)) - mass_i, stepped
with fixed-step forward Euler. The softmax weights use the
kappa-exponential for positive noise eta, or the normalized positive-part
power max{U, 0}^(1/kappa) in the vanishing-noise limit. All weight
computations run in log space, so no finite u/eta can overflow them.

Every solver steps raw (B, N) mass stacks under a DynamicBatch, whose
rows share the grid and dt but each have their own kappa and eta (a row may
be a limit row); a single run is a batch of one row. At N in the hundreds a
step is bound by per-call numpy overhead, so a stack of five runs steps in
the time of two or three single runs, and each row gets the same bits it
would get on its own: every sum runs along a row, in the same order. Each
Euler step is a convex combination of two simplex points, so the iterates
stay on the simplex by construction. Only recorded snapshots and final
states are wrapped (and validated) as GridMeasures.

A stationary state is the fixed point mass = weights(U(mass)), the same
from any start, so both solvers start from uniform. `solve_stationary`
takes a DynamicBatch, of one row for a single run, and runs the whole
chain. Anderson mixing, clipping each iterate to the simplex, runs first
with a large mixing weight that gives up where it stalls, then from the
start again with a small one. Each stage steps the rows still unsolved as
one (B, N) stack, sharing every model evaluation and Gram solve, and a row
leaves the stack when it stops. A stage that stops short for a row says
why (the budget ran out, an update left no positive finite mass, the limit
weight map degenerated, or the large weight gave up), and the next stage
takes over: the small weight unless the budget ran out, then, row by row,
the Euler `run_to_stationary`, the reference the tests compare against;
`fallback` lists why each stage stopped short. The transients keep Euler
from uniform, because there the transient is the object of study:
`run_until` is the one stepping loop, and the eta table is `run_until` on
its limit reference and every eta, as the rows of one batch.
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
    "record_steps",
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

# rows x cells of one Euler stack in `run_until`. Past about 64 KiB per
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
    the step budget of every run: the iterations of a stationary solve and
    the Euler steps of a transient."""

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


def weights(batch: DynamicBatch, u) -> np.ndarray:
    """The weight map U -> w(U) of each row of a (B, N) utility stack, under
    the kappa and eta of its row of `batch`.

    Positive noise: e_kappa(U_i/eta) / sum_j e_kappa(U_j/eta), the
    classical softmax at kappa = 0. Vanishing-noise limit:
    max{U_i, 0}^(1/kappa), normalized; a limit row with no positive
    utility raises DegenerateWeightsError. Computed in log space (shift
    each row by its max); a u that is not finite, or a u/eta (ln(u)/kappa
    in the limit) that would not be, raises ValueError before it divides.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (len(batch.configs), batch.grid.n):
        raise ValueError(f"utility stack has shape {u.shape}, the batch has "
                         f"{len(batch.configs)} rows of {batch.grid.n} cells")
    # max |u| over the whole stack bounds each row's (no BLAS call: OpenBLAS runs a dot
    # product of more than 10,000 entries on every thread, which costs milliseconds)
    try:
        _check_range(batch.configs, itertools.repeat(float(np.abs(u).max())))
    except ValueError:  # the bound may be loose: max |u| row by row decides
        _check_range(batch.configs, np.maximum(u.max(axis=1), -u.min(axis=1)).tolist())
    logw = np.empty_like(u)
    for rows, kappa, eta in batch.groups:
        logw[rows] = _log_weights(kappa, eta, u[rows])
    logw -= logw.max(axis=-1, keepdims=True)
    w = np.exp(logw, out=logw)
    w /= w.sum(axis=-1, keepdims=True)
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
    when eta is None, else ln e_kappa(u/eta) for a column eta."""
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


def euler_step(batch: DynamicBatch, model, mass: np.ndarray) -> np.ndarray:
    """m' = (1 - dt) m + dt * weights(U(m)) of each row of the (B, N) stack
    `mass`: an exact convex combination, so the simplex is preserved
    whenever dt <= 1."""
    return (1.0 - batch.dt) * mass + batch.dt * weights(batch, model.values(mass))


def _euler_iterates(batch: DynamicBatch, model, mass: np.ndarray, n_steps: int):
    """Yield the Euler iterates m_1, ..., m_n_steps of the (B, N) stack
    m_0 = mass. A degenerate weight map is re-raised with the 0-based index
    of the failing step."""
    for k in range(n_steps):
        try:
            mass = euler_step(batch, model, mass)
        except DegenerateWeightsError:
            raise DegenerateWeightsError(step=k) from None
        yield mass


def record_steps(times, dt: float | None, max_steps: int | None = None) -> dict[int, float]:
    """The Euler step k of each record time t = k dt, as {k: t} in step order
    ({} where dt is None, not known).

    One ConfigError lists every problem: a time that is not finite or is
    negative, no time after t = 0, and, where dt is known, a time whose step
    count t / dt overflows, a time off the step lattice (by more than 1e-9
    max(1, t)), two times on one step, a positive time on step 0 (that
    step is the t = 0 initial snapshot), and, where max_steps is known, a
    time past that many steps.
    """
    times = [float(t) for t in times]
    steps, problems = {}, [f"record time {t} is not a finite number" if not math.isfinite(t)
                           else f"record times must be >= 0 (got {t!r})"
                           for t in times if not 0.0 <= t < math.inf]
    if not any(t > 0.0 for t in times):
        problems.append(f"record times need a positive maximum (got {times!r})")
    for t in (t for t in times if dt is not None and 0.0 <= t < math.inf):
        if math.isinf(t / dt):
            problems.append(f"record time {t} is more steps of dt={dt} than a float can count")
            continue
        k = round(t / dt)
        if abs(k * dt - t) > 1e-9 * max(1.0, t):
            problems.append(f"record time {t} is not a multiple of dt={dt}")
        elif k == 0 and t > 0.0:
            problems.append(f"record time {t} falls on step 0, the t = 0 initial snapshot")
        elif k in steps:
            problems.append(f"record times {steps[k]} and {t} both fall on step {k}")
        elif max_steps is not None and k > max_steps:
            problems.append(f"record time {t} is step {k:.12g} of dt={dt}, past "
                            f"max_steps={max_steps}")
        else:
            steps[k] = t
    if problems:
        raise ConfigError(problems)
    return dict(sorted(steps.items()))


def run_until(batch: DynamicBatch, model, record_times) -> list:
    """Integrate each row of `batch` with fixed-step Euler from uniform to
    the last requested time. Returns one snapshot list per row, [(0.0,
    uniform), (t, measure), ...]: one per requested time t > 0 after the
    start, each labelled with its time.

    `record_steps` checks the times against dt and the smallest max_steps
    before the first step. The rows, which share `model`, step as stacks of
    at most STACK_CELLS cells (one row at least), and each row gets the
    bits it would get on its own.
    """
    grid, configs = batch.grid, batch.configs
    record = record_steps(record_times, batch.dt, min(c.max_steps for c in configs))
    init, runs = uniform(grid), []
    per_stack = max(1, STACK_CELLS // grid.n)
    for start in range(0, len(configs), per_stack):
        stack = DynamicBatch(configs[start:start + per_stack])
        snapshots = [[(0.0, init)] for _ in stack.configs]
        for k, mass in enumerate(_euler_iterates(stack, model, _uniform_stack(stack),
                                                 max(record)), start=1):
            if k in record:  # each row is copied into its measure, and the stack let go
                for run, row in zip(snapshots, mass):
                    run.append((record[k], GridMeasure(grid, row)))
        runs += snapshots
    return runs


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
    or the measure after config.max_steps steps as a nonstationary one.
    The run steps as a one-row stack, so `model` maps (1, N) stacks."""
    batch = DynamicBatch([config])
    mass = _uniform_stack(batch)
    for k, nxt in enumerate(_euler_iterates(batch, model, mass, config.max_steps)):
        if config.grid.n * float(np.abs(nxt - mass).max()) <= config.delta:
            return StationarySolution(GridMeasure(config.grid, nxt[0]), True, k, "euler")
        mass = nxt
    return StationarySolution(GridMeasure(config.grid, mass[0]), False, config.max_steps, "euler")


def _anderson(batch: DynamicBatch, model, mass: np.ndarray, beta: float, budgets,
              give_up: bool = False) -> list:
    """Anderson mixing (Walker & Ni 2011, type II) on f(m) = w(U(m)) - m,
    with mixing weight beta, from each row of the (B, N) stack `mass` under
    `batch`, for at most its one of the B ints `budgets` iterations.

    Returns one (mass, iterations, why) per row. The rows share every model
    evaluation, weight map and Gram solve, but each has its own delta,
    budget and give-up state, and gets the bits it would get on its own:
    every sum runs along a row, and each row's Gram system is solved on its
    own. A row that stops leaves the stack, which is cut to the rows still
    running.

    A row returns (mass, iterations, None) at its first iterate with N
    max|f| <= delta. The last ANDERSON_DEPTH differences of f and of g = m +
    beta f are the rows of two (B, depth, N) ring buffers, each new row
    written in place over the oldest. The mixing coefficients solve the
    normal equations of min |f - gamma @ dF|: the depth x depth Gram matrix
    dF dF^T gains one row and column per iteration, so no iteration forms or
    factors an N x depth matrix. The normal equations square the condition
    number, so a singular Gram matrix falls back to lstsq on dF^T. Every
    update is clipped to >= 0 and renormalized, so each iterate stays on the
    simplex.

    A row that stops short returns (None, iterations so far, why): when its
    budget runs out, its update leaves no positive finite mass, or it is a
    limit row and no utility of an iterate is positive (its weight map
    degenerates); with give_up, also when its max|f| grows past
    ANDERSON_GROWTH times its best, or that best has not halved within
    ANDERSON_PATIENCE iterations.
    """
    rows = [_AndersonRow(i, c, b) for i, (c, b) in enumerate(zip(batch.configs, budgets))]
    n, results = batch.grid.n, [None] * len(rows)
    df, dg = (np.empty((len(rows), ANDERSON_DEPTH, n)) for _ in range(2))
    gram = np.empty((len(rows), ANDERSON_DEPTH, ANDERSON_DEPTH))
    prev = ()  # f and g of the previous iterate
    for k in itertools.count():
        u = model.values(mass)
        done = {i: (None, k, f"{DegenerateWeightsError()} at Anderson iterate {k}")
                for i, row in enumerate(rows) if row.config.eta is None and (u[i] <= 0.0).all()}
        if done:  # the degenerate limit rows stop here, on a stand-in u the weight map takes
            u = u.copy()
            u[list(done)] = 1.0
        f = weights(batch, u)
        f -= mass
        for i, (row, residual) in enumerate(zip(rows, np.abs(f).max(axis=-1).tolist())):
            if i in done:
                continue
            if n * residual <= row.config.delta:
                done[i] = (mass[i], k, None)
            elif k == row.budget:
                done[i] = (None, k, f"Anderson mixing missed delta within {row.budget} iterations")
            elif give_up:
                row.best = min(row.best, residual)
                if row.best <= 0.5 * row.mark:
                    row.mark, row.halved = row.best, k
                if residual > ANDERSON_GROWTH * row.best:
                    done[i] = (None, k, f"Anderson residual grew past {ANDERSON_GROWTH:g} times "
                                        "its best")
                elif k - row.halved >= ANDERSON_PATIENCE:
                    done[i] = (None, k, f"Anderson residual stalled for {ANDERSON_PATIENCE} "
                                        "iterations")
        if done:
            if len(done) == len(rows):
                return _finished(results, rows, done)
            rows, batch, model, (mass, f, df, dg, gram, *prev) = _cut(
                results, rows, done, model, (mass, f, df, dg, gram, *prev))
        g = beta * f
        g += mass  # m + beta f
        nxt = g
        if prev:
            slot = (k - 1) % ANDERSON_DEPTH  # the oldest slot once the buffers are full
            m = min(k, ANDERSON_DEPTH)  # slots in use
            new, used = df[:, slot], df[:, :m]
            np.subtract(f, prev[0], out=new)
            np.subtract(g, prev[1], out=dg[:, slot])
            gram[:, slot, :m] = gram[:, :m, slot] = (used @ new[..., None])[..., 0]
            rhs = used @ f[..., None]
            try:
                gamma = np.linalg.solve(gram[:, :m, :m], rhs)
            except np.linalg.LinAlgError:  # some row's Gram matrix is singular: row by row
                systems = zip(gram[:, :m, :m], rhs, used, f)
                gamma = np.array([_mixing(*system) for system in systems])
            nxt = (gamma.swapaxes(-1, -2) @ dg[:, :m])[:, 0]
            np.subtract(g, nxt, out=nxt)
        prev = f, g
        nxt = np.maximum(nxt, 0.0)
        totals = nxt.sum(axis=-1, keepdims=True)
        sums = totals.ravel().tolist()
        done = {} if 0.0 < min(sums) and sum(sums) < math.inf else {  # a NaN sums to NaN
            i: (None, k + 1, f"Anderson update {k + 1} left no positive finite mass")
            for i, total in enumerate(sums) if not 0.0 < total < math.inf}
        if done:
            if len(done) == len(rows):
                return _finished(results, rows, done)
            rows, batch, model, (nxt, totals, df, dg, gram, *prev) = _cut(
                results, rows, done, model, (nxt, totals, df, dg, gram, *prev))
        nxt /= totals
        mass = nxt


@dataclass(slots=True)
class _AndersonRow:
    """One row of an Anderson stack: its row in the batch, its config and
    budget, and its give-up state: the smallest max|f| so far, that value
    when it last halved, and the iteration at which it did."""

    index: int
    config: DynamicConfig
    budget: int
    best: float = math.inf
    mark: float = math.inf
    halved: int = 0


def _mixing(gram: np.ndarray, rhs: np.ndarray, df: np.ndarray, f: np.ndarray) -> np.ndarray:
    """One row's mixing coefficients, an (m, 1) column: the Gram solve, or
    lstsq on dF^T where the Gram matrix is singular."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(df.T, f, rcond=None)[0][:, None]


def _finished(results: list, rows: list, done: dict) -> list:
    """`results` with the result of each stack row in `done` ({row: result})
    in its batch row."""
    for i, result in done.items():
        results[rows[i].index] = result
    return results


def _cut(results: list, rows: list, done: dict, model, stacks):
    """Record the stack rows in `done` as `_finished` does and cut the rest of
    the stack to the rows still running: returns their rows, batch, model and
    each (B, ...) array of `stacks`."""
    _finished(results, rows, done)
    keep = [i for i in range(len(rows)) if i not in done]
    index = np.array(keep)
    rows = [rows[i] for i in keep]
    return (rows, DynamicBatch(row.config for row in rows), model.rows(index),
            [stack[index] for stack in stacks])


def _uniform_stack(batch: DynamicBatch) -> np.ndarray:
    """The uniform mass of each row of a batch: uniform()'s bits, without
    building a GridMeasure."""
    return np.full((len(batch.configs), batch.grid.n), 1.0 / batch.grid.n)


def solve_stationary(batch: DynamicBatch, model) -> list:
    """The stationary state mass = weights(U(mass)) of each row of `batch`,
    from the uniform start: one outcome per row.

    Anderson mixing runs at ANDERSON_BETA under the give-up rule, then,
    where that stops short, from the start again at ANDERSON_SAFE_BETA. A
    row's stages share min(max_steps, ANDERSON_MAX_ITERATIONS) iterations
    and stop at N max|w(U(m)) - m| <= delta, a test 1/dt stricter than the
    per-step Euler test of `run_to_stationary`, which runs with the full
    max_steps where no stage meets it. `fallback` lists why each stage that
    ran stopped short, the whole budget where it ran out.

    Each stage runs as one Anderson stack of the rows still unsolved that
    have budget left, and the Euler fallback runs row by row. The model
    maps (B, N) stacks row by row, and `model.rows(index)` is its model of
    the rows of an index array (a CompetitionUtility's a and b may differ
    by row). Each row gets the outcome it would get on its own, bit for
    bit, and a row whose Euler fallback degenerates holds that
    DegenerateWeightsError.
    """
    configs = batch.configs
    budgets = [min(c.max_steps, ANDERSON_MAX_ITERATIONS) for c in configs]
    spent, states, whys = [0] * len(configs), [None] * len(configs), [[] for _ in configs]
    for beta, give_up in ((ANDERSON_BETA, True), (ANDERSON_SAFE_BETA, False)):
        todo = [i for i, state in enumerate(states) if state is None and spent[i] < budgets[i]]
        if not todo:
            break
        stage = DynamicBatch(configs[i] for i in todo)
        results = _anderson(stage, model.rows(np.array(todo)), _uniform_stack(stage), beta,
                            [budgets[i] - spent[i] for i in todo], give_up)
        for i, (mass, iterations, why) in zip(todo, results):
            spent[i] += iterations
            states[i] = mass
            if mass is None:
                whys[i].append(why if spent[i] < budgets[i] else
                               f"Anderson mixing missed delta within {budgets[i]} iterations")
    outcomes = []
    for i, (config, mass) in enumerate(zip(configs, states)):
        fallback = "; ".join(whys[i]) or None
        if mass is not None:
            outcomes.append(StationarySolution(GridMeasure(config.grid, mass), True, spent[i],
                                               "anderson", fallback))
            continue
        try:
            euler = run_to_stationary(config, model.rows(np.array([i])))
            outcomes.append(replace(euler, fallback=fallback))
        except DegenerateWeightsError as exc:
            outcomes.append(exc)
    return outcomes


def eta_convergence_table(base: DynamicConfig, model, etas, times) -> dict[str, list]:
    """Max-norm PDF error of positive-noise runs against the limit run.

    The limit-equation reference and every eta run are the rows of one
    `run_until` batch, compared at the requested times. Returns the columns
    eta, time, error and rate that `write_table` takes: rows from the
    largest eta down, times ascending; rate, None for the largest eta, is
    the observed order log(err_a/err_b)/log(eta_a/eta_b) against the next
    larger.

    A ConfigError names `etas` unless they are one or more distinct
    numbers, in any order; `record_steps` states the rule for `times`,
    base.max_steps the most steps they may take.
    """
    etas = [float(e) for e in etas]
    if not etas or len(set(etas)) < len(etas):
        raise ConfigError([f"etas: one or more distinct numbers required (got {etas!r})"])
    etas, times = sorted(etas, reverse=True), sorted(float(t) for t in times)
    batch = DynamicBatch(replace(base, eta=eta) for eta in (LIMIT_NOISE, *etas))
    ref, *runs = (dict(run) for run in run_until(batch, model, times))
    errors = {(eta, t): float(np.abs(pdf_values(run[t]) - pdf_values(ref[t])).max())
              for t in times for eta, run in zip(etas, runs)}

    table = {"eta": [], "time": [], "error": [], "rate": []}
    for prev, eta in zip([None, *etas], etas):  # the largest eta has no previous one
        for t in times:
            err_a, err_b = errors.get((prev, t), 0.0), errors[(eta, t)]
            rate = None
            if err_a > 0.0 and err_b > 0.0:
                rate = math.log(err_a / err_b) / math.log(prev / eta)
            for column, value in zip(table.values(), (eta, t, err_b, rate)):
                column.append(value)
    return table
