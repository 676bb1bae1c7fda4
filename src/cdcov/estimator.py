"""Closed-form compression-decompression (CD) shrinkage estimator.

Compressing p-dimensional observations through a random k x p unitary and
decompressing back, then averaging over the unitary ensemble, yields a
linear shrinkage of the sample covariance toward a trace-scaled identity:

    est(k) = eta * S + gamma * Tr(S) * I,

with eta = k(pk - 1) / (p(p^2 - 1)) and gamma = k(p - k) / (p(p^2 - 1)).
The trace factor (rather than a bare identity) preserves the largest
eigenvalues and keeps the estimate full rank for every k < p.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .matrices import SymMat, add_to_diagonal

__all__ = ["cd_coeff_grid", "cd_estimate"]


def _k_array(k_grid) -> np.ndarray:
    """``k_grid`` as an array; a ragged grid is an input error, not numpy's ``ValueError``."""
    try:
        return np.asarray(k_grid)
    except ValueError:
        raise InvalidInputError("k grid must be rectangular, got a ragged sequence") from None


def cd_coeff_grid(p: int, k_grid):
    """(eta, gamma) of the averaged compress-decompress map, for k a scalar or a k array.

    eta = k(pk - 1) / (p(p^2 - 1)) and gamma = k(p - k) / (p(p^2 - 1)), the
    trace coefficient confirmed against the Haar Monte-Carlo oracle.
    Numerators and denominator are integers below 2**53 for p < 2**17, so
    they are exact in floating point and each quotient is correctly rounded,
    for a scalar (as Python floats) as for an array. This is the one place
    a k becomes an integer: a k not of bool, integer or float dtype is
    rejected, an integral float such as 3.0 is accepted, and any other
    non-integer k is rejected by value.
    """
    p = int(p)
    raw = _k_array(k_grid)
    if raw.dtype.kind not in "biuf":
        raise InvalidInputError(f"compressed dimension must be numeric, got dtype {raw.dtype}")
    if raw.dtype.kind not in "iu":
        bad = raw[~(np.isfinite(raw) & (np.floor(raw) == raw))]
        if bad.size:
            raise InvalidInputError(f"compressed dimension must be an integer, got k={bad.flat[0]}")
    k = raw.astype(np.int64, copy=False)
    if p < 2:
        raise InvalidInputError(f"ambient dimension must be >= 2, got p={p}")
    out_of_range = (k < 1) | (k > p)
    if out_of_range.any():
        raise InvalidInputError(f"compressed dimension must satisfy 1 <= k <= p={p}, got k={k[out_of_range][0]}")
    k = (int(k) if k.ndim == 0 else k) * 1.0  # to float (or a float array), exactly
    denom = float(p * (p * p - 1))
    return k * (p * k - 1.0) / denom, k * (p - k) / denom


def _cd_fill(a: np.ndarray, eta: float, gamma: float) -> np.ndarray:
    """eta * a + gamma * Tr(a) * I written over the caller's square buffer ``a``; returns ``a``."""
    tr = float(np.trace(a))
    a *= eta
    return add_to_diagonal(a, gamma * tr)


def cd_estimate(s: SymMat, k: int) -> SymMat:
    """eta * S + gamma * Tr(S) * I for compressed dimension ``k``.

    ``s`` is expected to be a PSD sample covariance (the denominator-n
    convention in the benchmark pipelines). Eigenvectors are preserved; each
    eigenvalue maps to eta * lambda + gamma * Tr(S).
    """
    eta, gamma = cd_coeff_grid(s.dim, k)
    return SymMat(_cd_fill(s.values.copy(), eta, gamma))
