"""Dense symmetric-matrix primitives shared by every estimator.

Conventions used throughout the package:

* a data matrix is p x n: rows are variables, columns are observations;
* ``mle`` denotes the sample covariance with denominator n, ``unbiased``
  the one with denominator n - 1 (CovPair stores ``mle`` with the centered
  data it came from and derives ``unbiased``, so downstream risk formulas
  never mix the two silently);
* all randomness flows through :class:`RngSeed`, which derives independent,
  platform-stable child streams from a (seed, stream_id) pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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

# Row-mean tolerance for "centered" data: 1e-10 * n * max|entry|.
CENTERING_RTOL = 1e-10


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
    def from_array(a, *, rtol: float = 1e-8) -> "SymMat":
        """Copy ``a`` to float64 and symmetrize it exactly.

        Asymmetry beyond ``rtol`` (relative to the largest entry) is treated
        as a construction error rather than silently averaged away.
        """
        a = SymMat(np.array(a, dtype=np.float64)).values
        scale = float(np.max(np.abs(a)))
        if scale > 0.0 and float(np.max(np.abs(a - a.T))) > rtol * scale:
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

    def is_centered(self) -> bool:
        scale = float(np.max(np.abs(self.values)))
        if scale == 0.0:
            return True
        tol = CENTERING_RTOL * self.n * scale
        return float(np.max(np.abs(self.values.mean(axis=1)))) <= tol


@dataclass(frozen=True)
class CovPair:
    """A centered data matrix and its sample covariance, in both conventions."""

    x: DataMatrix
    mle: SymMat

    @property
    def n(self) -> int:
        return self.x.n

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


def cov_pair(x: DataMatrix) -> CovPair:
    """Sample covariance X X^T / n of centered data (X X^T / (n - 1) on demand)."""
    if x.n < 2:
        raise InvalidInputError(f"covariance needs at least 2 observations, got n={x.n}")
    if not x.is_centered():
        raise InvalidInputError("data matrix must be column-centered; call center_columns first")
    # numpy's x @ x.T is exactly symmetric: BLAS syrk fills one triangle from the other
    return CovPair(x=x, mle=SymMat(x.values @ x.values.T / x.n))


def frob_norm(a: SymMat) -> float:
    """Frobenius norm sqrt(sum of squared entries)."""
    return float(np.sqrt(np.sum(a.values**2)))


def op_norm(a: SymMat, tol: float = 1e-8) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Uses a dense symmetric eigensolve; if LAPACK fails to converge, falls
    back to power iteration and raises :class:`NumericalError` carrying the
    best iterate when the relative tolerance cannot be met.
    """
    if tol <= 0.0:
        raise InvalidInputError("tol must be positive")
    try:
        w = np.linalg.eigvalsh(a.values)
        return float(np.max(np.abs(w)))
    except np.linalg.LinAlgError:
        pass
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(10_000):
        w = a.values @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        new_est = nw
        v = w / nw
        if abs(new_est - est) <= tol * max(new_est, 1.0):
            return new_est
        est = new_est
    raise NumericalError("power iteration did not converge", best=est)


def load_data_matrix(path: str | Path, *, header: bool = False) -> DataMatrix:
    """Read a p x n data matrix from CSV (rows = variables, cols = observations)."""
    rows: list[list[float]] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for i, row in enumerate(reader):
            if header and i == 0:
                continue
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InvalidInputError(f"{path}: non-numeric value on line {i + 1}: {exc}") from exc
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InvalidInputError(f"{path}: ragged rows (widths {sorted(widths)})")
    return DataMatrix.from_array(rows)


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
