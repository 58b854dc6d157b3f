"""Numerically stable log of the kappa-exponential.

The kappa-exponential e_kappa(z) = (kappa*z + sqrt(kappa^2 z^2 + 1))^(1/kappa)
interpolates between exp (kappa=0) and a rational-like function growing as
z^(1/kappa). The softmax step needs only its log, computed here without
ever forming e_kappa, so no finite z can overflow it. The range of
kappa is DynamicConfig's rule, checked once when a config is built.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_e_kappa"]


def log_e_kappa(kappa: float, z: np.ndarray) -> np.ndarray:
    """ln e_kappa(z) = asinh(kappa*z)/kappa, stable for arbitrarily large |z|.

    Algebraically identical to (1/kappa)*ln(kappa*z + sqrt(kappa^2 z^2 + 1))
    but immune to overflow and to cancellation for z < 0. kappa lies in
    (0, 1] (the kappa = 0 map is the identity, which the caller applies),
    one number or an array of z's shape, one kappa per entry of z, and z is
    a non-empty float array of at least one dimension with no NaN.
    Where |kappa*z| < 1e-8, asinh(kappa*z)/kappa would lose precision (or
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
