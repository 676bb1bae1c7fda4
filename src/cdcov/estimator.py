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
from .matrices import SymMat

__all__ = ["CdCoeffs", "cd_coeffs", "cd_coeff_grid", "cd_estimate", "shrinkage_compare"]


@dataclass(frozen=True)
class CdCoeffs:
    """Shrinkage coefficients of the CD estimator for a (p, k) pair."""

    p: int
    k: int
    eta: float
    gamma: float


def cd_coeffs(p: int, k: int, *, gamma_variant: str = "k_scaled") -> CdCoeffs:
    """Coefficients (eta, gamma) at one compressed dimension (see :func:`cd_coeff_grid`)."""
    eta, gamma = cd_coeff_grid(p, int(k), gamma_variant=gamma_variant)
    return CdCoeffs(p=int(p), k=int(k), eta=eta, gamma=gamma)


def cd_coeff_grid(p: int, k_grid, *, gamma_variant: str = "k_scaled"):
    """(eta, gamma) of the averaged compress-decompress map, for k an int or a k array.

    ``gamma_variant`` selects the trace coefficient:

    * ``"k_scaled"`` (default): gamma = k(p - k) / (p(p^2 - 1)), the value
      confirmed against the Haar Monte-Carlo oracle;
    * ``"unscaled"``: gamma = (p - k) / (p(p^2 - 1)), kept constructible only
      so the oracle-based discrimination test can reject it.

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
    if gamma_variant == "k_scaled":
        gamma = k * (p - k) / denom
    elif gamma_variant == "unscaled":
        gamma = (p - k) / denom
    else:
        raise InvalidInputError(f"unknown gamma_variant {gamma_variant!r}")
    return k * (p * k - 1.0) / denom, gamma


def cd_estimate(s: SymMat, k: int, *, gamma_variant: str = "k_scaled") -> SymMat:
    """eta * S + gamma * Tr(S) * I for compressed dimension ``k``.

    ``s`` is expected to be a PSD sample covariance (the denominator-n
    convention in the benchmark pipelines). Eigenvectors are preserved; each
    eigenvalue maps to eta * lambda + gamma * Tr(S).
    """
    c = cd_coeffs(s.dim, k, gamma_variant=gamma_variant)
    out = c.eta * s.values + (c.gamma * s.trace()) * np.eye(s.dim)
    return SymMat.from_array(out)


def shrinkage_compare(s: SymMat, k: int, a: float | None = None) -> tuple[SymMat, SymMat]:
    """CD estimate next to a plain identity-target shrinker a*S + (1-a)*I.

    With ``a`` unset, the identity-target weight is matched to the CD
    coefficients (a = eta / (eta + gamma * Tr(S) / p)) so both estimators
    spend a comparable shrinkage budget; the difference is then purely the
    trace-scaled versus bare identity target.
    """
    c = cd_coeffs(s.dim, k)
    cd = cd_estimate(s, k)
    if a is None:
        denom = c.eta + c.gamma * s.trace() / s.dim
        a = c.eta / denom if denom > 0.0 else 1.0
    if not 0.0 <= a <= 1.0:
        raise InvalidInputError(f"mixing weight must lie in [0, 1], got a={a}")
    plain = a * s.values + (1.0 - a) * np.eye(s.dim)
    return cd, SymMat.from_array(plain)
