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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .matrices import SymMat, add_to_diagonal

__all__ = ["CdCoeffs", "cd_coeffs", "cd_coeff_grid", "cd_estimate"]


@dataclass(frozen=True)
class CdCoeffs:
    """Shrinkage coefficients of the CD estimator for a (p, k) pair."""

    p: int
    k: int
    eta: float
    gamma: float


def cd_coeffs(p: int, k: int) -> CdCoeffs:
    """Coefficients (eta, gamma) at one compressed dimension (see :func:`cd_coeff_grid`)."""
    eta, gamma = cd_coeff_grid(p, int(k))
    return CdCoeffs(p=int(p), k=int(k), eta=eta, gamma=gamma)


def cd_coeff_grid(p: int, k_grid):
    """(eta, gamma) of the averaged compress-decompress map, for k an int or a k array.

    eta = k(pk - 1) / (p(p^2 - 1)) and gamma = k(p - k) / (p(p^2 - 1)), the
    trace coefficient confirmed against the Haar Monte-Carlo oracle.
    Numerators and denominator are integers below 2**53 for p < 2**17, so
    they are exact in floating point and each quotient is correctly rounded,
    for an int as for an array.
    """
    p = int(p)
    k = k_grid if isinstance(k_grid, int) else np.asarray(k_grid, dtype=np.int64)
    if p < 2:
        raise InvalidInputError(f"ambient dimension must be >= 2, got p={p}")
    if np.any(k < 1) or np.any(k > p):
        raise InvalidInputError(f"compressed dimension must satisfy 1 <= k <= p={p}, got k={k}")
    k = k * 1.0  # to float (or a float array), exactly
    denom = float(p * (p * p - 1))
    return k * (p * k - 1.0) / denom, k * (p - k) / denom


def cd_estimate(s: SymMat, k: int) -> SymMat:
    """eta * S + gamma * Tr(S) * I for compressed dimension ``k``.

    ``s`` is expected to be a PSD sample covariance (the denominator-n
    convention in the benchmark pipelines). Eigenvectors are preserved; each
    eigenvalue maps to eta * lambda + gamma * Tr(S).
    """
    c = cd_coeffs(s.dim, k)
    return SymMat(add_to_diagonal(c.eta * s.values, c.gamma * s.trace()))
