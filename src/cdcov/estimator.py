"""Closed-form compression-decompression (CD) shrinkage estimator.

Compressing p-dimensional observations through a random k x p unitary and
decompressing back, then averaging over the unitary ensemble, yields a
linear shrinkage of the sample covariance toward a trace-scaled identity:

    est(k) = eta * S + gamma * Tr(S) * I,

with eta = k(pk - 1) / (p(p^2 - 1)) and gamma = k(p - k) / (p(p^2 - 1)).
The trace factor (rather than a bare identity) preserves the largest
eigenvalues and keeps the estimate full rank for every k < p.

For S = X X^T / n the estimate is fixed by O(pn) numbers: the centered
data X, eta and gamma * Tr(S). :class:`CdEstimate` holds those and forms
blocks of whole rows on demand, so writing it needs no p x p matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .matrices import DataMatrix, SymMat, _row_blocks, add_to_diagonal

__all__ = ["CdEstimate", "cd_coeff_grid", "cd_estimate"]

# Rows of X per syrk when CdEstimate sums the diagonal of X X^T. At p <= 128
# that is one syrk of all of X, as CovPair.mle's; one row at a time would be
# a dot product, whose last bits differ from syrk's diagonal far more often.
_TRACE_ROWS = 128


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


def _trace(diagonal: np.ndarray) -> float:
    """The sum of a sample covariance's diagonal; an overflow is an input error that names the trace, not a warning."""
    with np.errstate(over="ignore"):
        tr = float(np.sum(diagonal))
    if not np.isfinite(tr):
        raise InvalidInputError("the trace of the sample covariance overflows float64")
    return tr


def cd_estimate(s: SymMat, k: int) -> SymMat:
    """eta * S + gamma * Tr(S) * I for compressed dimension ``k``.

    ``s`` is expected to be a PSD sample covariance (the denominator-n
    convention in the benchmark pipelines). Eigenvectors are preserved; each
    eigenvalue maps to eta * lambda + gamma * Tr(S). A Tr(S) that overflows
    float64 is an :class:`InvalidInputError`. :class:`CdEstimate` is the same
    estimate held as the centered data, for p >> n.
    """
    eta, gamma = cd_coeff_grid(s.dim, k)
    shift = gamma * _trace(s.values.diagonal())
    return SymMat(add_to_diagonal(eta * s.values, shift))


@dataclass(frozen=True)
class CdEstimate:
    """The CD estimate eta * S + gamma * Tr(S) * I of S = X X^T / n, held as its O(pn) factor.

    ``x`` is a pair's centered data (``CovPair.x``), and the estimate is
    fixed by it, ``eta`` and ``shift`` = gamma * Tr(S). Construction checks
    k (by :func:`cd_coeff_grid`) and sums Tr(S) from syrk blocks of X, before
    any p x p entry is formed. A finite Tr(S) is the finiteness check: no
    entry exceeds (eta + gamma) Tr(S) <= Tr(S) in size, and a Tr(S) that
    overflows is an :class:`InvalidInputError` that names the trace.
    :meth:`rows` forms any block of whole rows, and ``values``, the dense
    p x p matrix, is built from the row blocks that
    :func:`~cdcov.matrices.save_sym_mat` asks for, so the two agree bit for
    bit. At p <= 90 one block is all of X X^T, and ``values`` equals
    :func:`cd_estimate` of the pair's S byte for byte; at larger p a block's
    gemm may differ from the full product's syrk in the last bit.
    """

    x: DataMatrix
    k: int
    eta: float = field(init=False)
    shift: float = field(init=False)

    def __post_init__(self) -> None:
        x = self.x.values
        eta, gamma = cd_coeff_grid(self.dim, self.k)
        s_diag = np.empty(self.dim)
        for i in range(0, self.dim, _TRACE_ROWS):
            b = x[i : i + _TRACE_ROWS]
            s_diag[i : i + b.shape[0]] = (b @ b.T).diagonal()
        s_diag /= self.x.n
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "shift", gamma * _trace(s_diag))

    @property
    def dim(self) -> int:
        return self.x.p

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the estimate, a fresh (stop - start) x p array, in :func:`cd_estimate`'s order of operations.

        On the writer's blocks (``matrices._row_blocks``) these are
        ``values[start:stop]`` bit for bit. gemm's last bits can depend on a
        block's height, so a block of other bounds can differ in the last bit.
        """
        x = self.x.values
        a = x[start:stop] @ x.T
        a /= self.x.n
        a *= self.eta
        a += 0.0  # as add_to_diagonal: -0.0 becomes 0.0
        a.ravel()[start :: self.dim + 1] += self.shift  # entry (i, start + i)
        return a

    @cached_property
    def values(self) -> np.ndarray:
        """The dense estimate, read-only, built on first access and kept."""
        a = np.empty((self.dim, self.dim))
        for start, stop in _row_blocks(self.dim):
            a[start:stop] = self.rows(start, stop)
        a.flags.writeable = False
        return a
