"""Numerically stable kappa-exponential function and relatives.

The kappa-exponential e_kappa(z) = (kappa*z + sqrt(kappa^2 z^2 + 1))^(1/kappa)
interpolates between exp (kappa=0) and a rational-like function growing as
z^(1/kappa). Everything here works in log space first: the softmax-style
code downstream must never see an overflowed e_kappa value.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "validate_kappa",
    "log_e_kappa",
    "log_e_kappa_unchecked",
    "e_kappa",
    "d_e_kappa",
    "scaled_limit_residual",
]


def validate_kappa(kappa: float) -> float:
    """Check the shape parameter lies in [0, 1] and return it as a float."""
    kappa = float(kappa)
    if not np.isfinite(kappa) or not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa!r}")
    return kappa


def log_e_kappa(kappa: float, z):
    """ln e_kappa(z), stable for arbitrarily large |z|.

    For kappa > 0 this is asinh(kappa*z)/kappa, algebraically identical to
    (1/kappa)*ln(kappa*z + sqrt(kappa^2 z^2 + 1)) but immune to overflow and
    to cancellation for z < 0. The kappa = 0 branch is the identity (exact,
    no division by kappa anywhere on that path).

    Accepts scalars or arrays; NaN inputs are rejected.
    """
    kappa = validate_kappa(kappa)
    z = np.asarray(z, dtype=float)
    if np.any(np.isnan(z)):
        raise ValueError("log_e_kappa: NaN input")
    if kappa == 0.0 or z.size == 0:
        out = z.copy()
    else:
        out = log_e_kappa_unchecked(kappa, z.reshape(-1)).reshape(z.shape)
    return out if out.ndim else float(out)


def log_e_kappa_unchecked(kappa: float, z: np.ndarray) -> np.ndarray:
    """ln e_kappa(z) = asinh(kappa*z)/kappa without the checks of log_e_kappa.

    For callers that checked their inputs once: kappa lies in (0, 1] and z
    is a non-empty float array of at least one dimension with no NaN. Where
    |kappa*z| < 1e-8, asinh(kappa*z)/kappa would lose precision (or
    kappa*z underflowed), so those entries alone take the series
    z*(1 - (kappa z)^2/6).
    """
    w = kappa * z
    out = np.arcsinh(w)
    out /= kappa
    magnitude = np.abs(w)
    if magnitude.min() < 1e-8:
        small = magnitude < 1e-8
        ws = w[small]
        out[small] = z[small] * (1.0 - ws * ws / 6.0)
    return out


def e_kappa(kappa: float, z):
    """e_kappa(z) = exp(log_e_kappa(kappa, z)).

    Strictly positive; may overflow to +inf at kappa = 0 for extreme z.
    Callers needing stability use log_e_kappa directly.
    """
    with np.errstate(over="ignore"):
        out = np.exp(log_e_kappa(kappa, z))
    return out


def d_e_kappa(kappa: float, z):
    """Derivative of e_kappa: e_kappa(z) / sqrt(kappa^2 z^2 + 1)."""
    kappa = validate_kappa(kappa)
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
    overflow of e_kappa(u/eta) for tiny eta. Used by the property tests.
    """
    kappa = validate_kappa(kappa)
    if kappa == 0.0:
        raise ValueError("scaled_limit_residual: undefined at kappa = 0")
    eta = float(eta)
    u = float(u)
    if eta <= 0.0 or u <= 0.0:
        raise ValueError("scaled_limit_residual: requires eta > 0 and u > 0")
    scaled = (u / 2.0 + np.sqrt(u * u / 4.0 + eta * eta / (4.0 * kappa * kappa))) ** (1.0 / kappa)
    return abs(scaled - u ** (1.0 / kappa))
