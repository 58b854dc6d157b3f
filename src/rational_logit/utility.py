"""The fishing-competition utility U(x; mu) at cell midpoints.

`CompetitionUtility.values(mass)` maps the (N,) cell-mass vector to the
(N,) utility vector, or a (B, N) stack of mass rows to the (B, N) stack of
their utilities: quadratic harvesting cost, pairwise difference reward, and
an award for the upper-alpha tail, the tail mass regularized by a ramp of
width epsilon. It holds no matrix: both sums depend only on the cell
offset, so `values` costs O(N) by cumulative sums (c in {0, 1},
epsilon <= 1/N) or O(N log N) by one FFT Toeplitz product, in O(N) memory.
A model may take the weights a and b per row of the stacks it maps, the
only utility parameters a fit varies, so one model serves a fit level.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .measures import Grid, check_fields, is_number, store_floats

__all__ = ["CompetitionParams", "CompetitionUtility"]


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
        nonnegative = lambda v: is_number(v) and v >= 0.0
        check_fields(self, [
            *((name, "number >= 0 required", nonnegative) for name in ("a", "b", "c", "d")),
            ("alpha", "number in (0, 1) required", lambda v: is_number(v) and 0.0 < v < 1.0),
            ("epsilon", "positive number or None required",
             lambda v: v is None or (is_number(v) and v > 0.0)),
        ])
        store_floats(self, "a", "b", "c", "d", "alpha", "epsilon")

    def resolve_epsilon(self, grid: Grid) -> float:
        return self.epsilon if self.epsilon is not None else grid.cell_width


class CompetitionUtility:
    """Cost + difference reward + regularized award, in O(N) memory.

    U_i = -a x_i^2 sum_j m_j + b sum_j |x_i - x_j|^c m_j + d max(alpha - tail_i, 0)
    with tail_i = sum_j clip((x_j - x_i + epsilon)/epsilon, 0, 1) m_j.

    On the uniform grid both sums depend only on the offset i - j. The ramp
    is 1 for j >= i, so the tail is the suffix sum of m, plus the ramp's
    lower lags 1 .. ceil(N epsilon) - 1 when epsilon > 1/N. The reward is
    b sum_j m_j at c = 0 and a two-sided double cumulative sum at c = 1.
    Any other c, and the lower ramp lags, take one zero-padded FFT Toeplitz
    product against kernel spectra computed here. So `values` costs O(N)
    for c in {0, 1} with epsilon <= 1/N, and O(N log N) otherwise.

    `params` is one CompetitionParams, shared by every row, or a sequence of
    them, one per row of the (B, N) stacks `values` maps, that differ at
    most in a and b. Each row then gets the bits of the model of its own
    params (it has its own cost vector and, for c not in {0, 1}, its own
    reward spectrum), and `rows` cuts the model to some of its rows.
    """

    def __init__(self, grid: Grid, params):
        self.grid = grid
        if isinstance(params, CompetitionParams):
            first, a, b = params, params.a, params.b
        else:  # a and b as (B, 1) columns
            params = tuple(params)
            first = params[0]
            if any(replace(p, a=first.a, b=first.b) != first for p in params):
                raise ValueError("the rows of a utility must differ at most in a and b")
            a, b = np.array([[p.a] for p in params]), np.array([[p.b] for p in params])
        self.params = params
        self._shared, self._b = first, b  # the parameters every row shares, and b
        epsilon = first.resolve_epsilon(grid)
        n = grid.n
        self._cost = -a * grid.midpoints ** 2
        lag = np.arange(n) * grid.cell_width  # |x_i - x_j| at offset |i - j|
        ramp, below = np.zeros(n), lag < epsilon  # off the ramp, lag / epsilon may overflow
        ramp[below] = (epsilon - lag[below]) / epsilon
        ramp[0] = 0.0  # lag 0 is in the suffix sum
        self._wide = bool(np.any(ramp > 0.0))
        kernels = []  # (lower, upper): T[i, j] = lower[i - j] if i >= j else upper[j - i]
        if first.c not in (0.0, 1.0):
            reward = b * lag ** first.c  # a (B, N) stack of kernels for a column b
            kernels.append((reward, reward))
        if self._wide:
            kernels.append((ramp, np.zeros(n)))
        self._fft_size = 1 << (2 * n - 2).bit_length()  # smallest power of 2 >= 2n - 1
        spectra = [_circulant_spectrum(lower, upper, self._fft_size) for lower, upper in kernels]
        # (kernels, F), or (B, kernels, F) where the reward kernel is per row
        self._spectra = np.stack(np.broadcast_arrays(*spectra), axis=-2) if spectra else None

    def rows(self, index) -> CompetitionUtility:
        """The model of the rows `index`, an index array, of this one's
        stacks. A model shared by every row is its own model of any rows."""
        if isinstance(self.params, CompetitionParams):
            return self
        part = copy.copy(self)
        part.params = tuple(self.params[i] for i in index)
        part._b, part._cost = self._b[index], self._cost[index]
        if self._spectra is not None and self._spectra.ndim == 3:
            part._spectra = self._spectra[index]
        return part

    def values(self, mass: np.ndarray) -> np.ndarray:
        """U of an (N,) mass vector, or of each row of a (B, N) stack. The
        sums run along the last axis, so a row of a stack gets the same
        bits as the same row on its own."""
        p, n = self._shared, self.grid.n
        upper = mass[..., ::-1].cumsum(-1)[..., ::-1]  # sum_{j >= i} m_j
        total = upper[..., :1]
        if self._spectra is not None:
            spectrum = self._spectra * np.fft.rfft(mass, self._fft_size)[..., None, :]
            lagged = np.fft.irfft(spectrum, self._fft_size)[..., :n]
        if p.c == 0.0:
            reward = self._b * total  # |0|^0 taken as 1, so c = 0 is a constant reward
        elif p.c == 1.0:
            dist = np.zeros(mass.shape)  # sum_j |i - j| m_j
            dist[..., 1:] = mass[..., :-1].cumsum(-1).cumsum(-1)
            dist[..., :-1] += upper[..., :0:-1].cumsum(-1)[..., ::-1]
            reward = (self._b * self.grid.cell_width) * dist
        else:
            reward = lagged[..., 0, :]
        tail = upper + lagged[..., -1, :] if self._wide else upper
        return self._cost * total + reward + p.d * np.maximum(p.alpha - tail, 0.0)


def _circulant_spectrum(lower: np.ndarray, upper: np.ndarray, size: int) -> np.ndarray:
    """rfft of the first column of the size x size circulant that embeds the
    n x n Toeplitz matrix T[i, j] = lower[i - j] (i >= j), upper[j - i] (j > i),
    for each row of a stack of (lower, upper) kernels along the last axis."""
    n = lower.shape[-1]
    column = np.zeros((*lower.shape[:-1], size))
    column[..., :n] = lower
    column[..., size - n + 1:] = upper[..., :0:-1]
    return np.fft.rfft(column)

