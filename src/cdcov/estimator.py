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


def cd_coeff_grid(p: int, k_grid):
    """(eta, gamma) of the averaged compress-decompress map, for k a scalar or a k array.

    eta = k(pk - 1) / (p(p^2 - 1)) and gamma = k(p - k) / (p(p^2 - 1)), the
    trace coefficient confirmed against the Haar Monte-Carlo oracle.
    Numerators and denominator are integers below 2**53 for p < 2**17, so
    they are exact in floating point and each quotient is correctly rounded,
    for a scalar (as Python floats) as for an array. This is the one place
    a k becomes an integer: an integral float such as 3.0 is accepted, any
    other non-integer k is rejected by value.
    """
    p = int(p)
    raw = np.asarray(k_grid)
    if raw.dtype.kind not in "iu":
        bad = raw[~(np.isfinite(raw) & (np.floor(raw) == raw))]
        if bad.size:
            raise InvalidInputError(f"compressed dimension must be an integer, got k={bad.flat[0]}")
    k = int(raw) if raw.ndim == 0 else raw.astype(np.int64, copy=False)
    if p < 2:
        raise InvalidInputError(f"ambient dimension must be >= 2, got p={p}")
    out_of_range = (k < 1) | (k > p)
    if np.any(out_of_range):
        bad = np.asarray(k)[out_of_range].flat[0]
        raise InvalidInputError(f"compressed dimension must satisfy 1 <= k <= p={p}, got k={bad}")
    k = k * 1.0  # to float (or a float array), exactly
    denom = float(p * (p * p - 1))
    return k * (p * k - 1.0) / denom, k * (p - k) / denom


def cd_estimate(s: SymMat, k: int) -> SymMat:
    """eta * S + gamma * Tr(S) * I for compressed dimension ``k``.

    ``s`` is expected to be a PSD sample covariance (the denominator-n
    convention in the benchmark pipelines). Eigenvectors are preserved; each
    eigenvalue maps to eta * lambda + gamma * Tr(S).
    """
    eta, gamma = cd_coeff_grid(s.dim, k)
    return SymMat(add_to_diagonal(eta * s.values, gamma * s.trace()))
