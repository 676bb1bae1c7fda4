"""Dense symmetric-matrix primitives shared by every estimator.

Conventions used throughout the package:

* a data matrix is p x n: rows are variables, columns are observations;
* ``mle`` denotes the sample covariance with denominator n, ``unbiased``
  the one with denominator n - 1 (:func:`cov_pair` centers the data, and its
  CovPair holds only that; it builds ``mle`` on first access and keeps it, and
  derives ``unbiased`` on each access, so downstream risk formulas never mix
  the two silently and a caller that reads neither never holds a p x p matrix);
* all randomness flows through :class:`RngSeed`, which derives independent,
  platform-stable child streams from a (seed, stream_id) pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.random import Generator, SeedSequence

from .errors import InvalidInputError, NumericalError

__all__ = [
    "RngSeed",
    "SymMat",
    "DataMatrix",
    "CovPair",
    "center_columns",
    "cov_pair",
    "frob_norm",
    "op_norm",
    "add_to_diagonal",
    "load_data_matrix",
    "save_sym_mat",
    "load_sym_mat",
    "fmt_float",
]

# Asymmetry tolerance of SymMat.from_array: 1e-8 * max|entry|.
_SYMMETRY_RTOL = 1e-8


def fmt_float(x: float) -> str:
    """Locale-independent decimal representation that round-trips float64."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RngSeed:
    """Root of a deterministic random-stream tree.

    Identical (seed, stream_id) pairs reproduce identical draws on every
    platform. Child streams are derived through the spawn-key mechanism, so
    replicates and worker chunks can be generated independently and in any
    order without changing the results.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0 or v >= 2**64:
                raise InvalidInputError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self, *path: int) -> Generator:
        """Generator for the child stream addressed by ``path``."""
        ss = SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id), *map(int, path)))
        return np.random.default_rng(ss)

    def child(self, *path: int) -> "RngSeed":
        """Re-rooted seed for a subtree (used for per-replicate method seeds)."""
        ss = SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id), *map(int, path)))
        return RngSeed(int(ss.generate_state(1, np.uint64)[0]), 0)


@dataclass(frozen=True)
class SymMat:
    """Dense symmetric p x p matrix, read-only.

    The constructor checks that ``values`` is square, non-empty and finite
    (``X X^T`` of finite data can overflow) and makes it read-only, without
    copying. Symmetry is the caller's duty: package code passes arrays that are
    exactly symmetric by construction, which the tests demand bit for bit.
    :meth:`from_array`, for outside input and sums symmetric only up to
    rounding, is the one place that checks and enforces symmetry.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        a = self.values
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InvalidInputError("matrix dimension must be positive")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("matrix entries must be finite")
        a.flags.writeable = False

    @staticmethod
    def from_array(a) -> "SymMat":
        """Copy ``a`` to float64 and symmetrize it exactly.

        Asymmetry beyond ``_SYMMETRY_RTOL`` (relative to the largest entry)
        is treated as a construction error rather than silently averaged away.
        """
        a = SymMat(np.array(a, dtype=np.float64)).values
        scale = float(np.max(np.abs(a)))
        if scale > 0.0 and float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * scale:
            raise InvalidInputError("matrix is not symmetric within tolerance")
        return SymMat(0.5 * (a + a.T))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.values))


@dataclass(frozen=True)
class DataMatrix:
    """p x n data matrix, read-only: rows are variables, columns are observations.

    The constructor checks that ``values`` is 2-d, non-empty and finite and
    makes it read-only, without copying; :meth:`from_array` copies input
    from outside the package to float64 first.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        a = self.values
        if a.ndim != 2:
            raise InvalidInputError(f"expected a 2-d array, got shape {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidInputError(f"data matrix must be non-empty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("data entries must be finite")
        a.flags.writeable = False

    @staticmethod
    def from_array(a) -> "DataMatrix":
        return DataMatrix(np.array(a, dtype=np.float64))

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CovPair:
    """A column-centered data matrix and its sample covariance, in both conventions; see :func:`cov_pair`."""

    x: DataMatrix

    @property
    def n(self) -> int:
        return self.x.n

    @cached_property
    def mle(self) -> SymMat:
        """X X^T / n, built on first access and kept."""
        return SymMat(_mle_buffer(self.x))

    @property
    def unbiased(self) -> SymMat:
        """(n / (n - 1)) * ``mle``, built on each access."""
        return SymMat((self.n / (self.n - 1)) * self.mle.values)


def add_to_diagonal(a: np.ndarray, c: float) -> np.ndarray:
    """``a + c * I`` in place for a square array; returns ``a``.

    Adding 0.0 everywhere turns -0.0 into 0.0, as adding a dense ``c * I``
    does: the sign of a zero steers LAPACK's reflector signs in ``eigh``.
    """
    a += 0.0
    a.flat[:: a.shape[0] + 1] += c
    return a


def center_columns(x: DataMatrix) -> DataMatrix:
    """Subtract each variable's empirical mean (row means become 0)."""
    if x.n < 2:
        raise InvalidInputError(f"centering needs at least 2 observations, got n={x.n}")
    return DataMatrix(x.values - x.values.mean(axis=1, keepdims=True))


def _row_sq(x: DataMatrix) -> np.ndarray:
    """sum_j x_ij^2 for each row i, the diagonal of X X^T, with no p x n temporary."""
    return np.einsum("ij,ij->i", x.values, x.values)


def _mle_buffer(x: DataMatrix) -> np.ndarray:
    """A fresh, writable X X^T / n, with no second p x p temporary."""
    # numpy's x @ x.T is exactly symmetric: BLAS syrk fills one triangle from the other
    a = x.values @ x.values.T
    a /= x.n
    return a


def cov_pair(x: DataMatrix) -> CovPair:
    """Sample covariance X X^T / n of ``x`` after :func:`center_columns`, both conventions on demand.

    The pair keeps the centered copy as ``CovPair.x``; centered input is centered
    again, which can move entries in the last bit.
    Every |(X X^T)_ij| is at most the larger of (X X^T)_ii and (X X^T)_jj,
    so finite row sums of squares show that X X^T is finite without forming it.
    """
    x = center_columns(x)
    if not np.isfinite(_row_sq(x)).all():
        raise InvalidInputError("covariance entries must be finite; X X^T overflows")
    return CovPair(x)


def frob_norm(a: SymMat) -> float:
    """Frobenius norm sqrt(sum of squared entries)."""
    return float(np.sqrt(np.sum(a.values**2)))


def op_norm(a: SymMat) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, by a dense symmetric eigensolve.

    A LAPACK failure to converge raises :class:`NumericalError`.
    """
    try:
        w = np.linalg.eigvalsh(a.values)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve did not converge ({exc})") from exc
    return float(np.max(np.abs(w)))


def _open_input(path: str | Path):
    """``path`` opened for csv reading; a file that cannot be opened is an input error naming it."""
    try:
        return open(path, newline="")
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot open input file ({exc.strerror})") from exc


def load_data_matrix(path: str | Path, *, header: bool = False) -> DataMatrix:
    """Read a p x n data matrix from CSV (rows = variables, cols = observations)."""
    rows: list[np.ndarray] = []
    try:
        with _open_input(path) as f:
            for i, row in enumerate(csv.reader(f)):
                if (header and i == 0) or not row:
                    continue
                try:
                    rows.append(np.fromiter(map(float, row), dtype=np.float64, count=len(row)))
                except ValueError as exc:
                    raise InvalidInputError(f"{path}: non-numeric value on line {i + 1}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not a text file ({exc})") from exc
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    widths = {r.size for r in rows}
    if len(widths) != 1:
        raise InvalidInputError(f"{path}: ragged rows (widths {sorted(widths)})")
    return DataMatrix(np.vstack(rows))


def save_sym_mat(a: SymMat, path: str | Path) -> None:
    """Write the full square matrix as CSV with round-trippable floats.

    The bytes are those of ``csv.writer`` rows of :func:`fmt_float` fields:
    ``%.17g`` formats as ``format(x, ".17g")`` does, no number needs
    quoting, and rows end in the csv module's ``\\r\\n``.
    """
    line = ",".join(["%.17g"] * a.dim) + "\r\n"
    with open(path, "w", newline="") as f:
        for row in a.values:
            f.write(line % tuple(row.tolist()))


def load_sym_mat(path: str | Path) -> SymMat:
    dm = load_data_matrix(path)
    return SymMat.from_array(dm.values)
