"""Dense symmetric-matrix primitives shared by every estimator.

Conventions used throughout the package:

* a data matrix is p x n: rows are variables, columns are observations;
* ``mle`` denotes the sample covariance with denominator n, ``unbiased``
  the one with denominator n - 1 (CovPair stores ``mle`` with n and derives
  ``unbiased`` from them, so downstream risk formulas never mix the two
  silently);
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
    "schur",
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
    """Dense symmetric p x p matrix with the symmetry enforced exactly."""

    values: np.ndarray

    @staticmethod
    def from_array(a: np.ndarray, *, rtol: float = 1e-8) -> "SymMat":
        """Validate and exactly symmetrize ``a``.

        Asymmetry beyond ``rtol`` (relative to the largest entry) is treated
        as a construction error rather than silently averaged away.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise InvalidInputError("matrix dimension must be positive")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("matrix entries must be finite")
        scale = float(np.max(np.abs(a))) if a.size else 0.0
        if scale > 0.0 and float(np.max(np.abs(a - a.T))) > rtol * scale:
            raise InvalidInputError("matrix is not symmetric within tolerance")
        sym = 0.5 * (a + a.T)
        sym.flags.writeable = False
        return SymMat(sym)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.values))


@dataclass(frozen=True)
class DataMatrix:
    """p x n data matrix: rows are variables, columns are observations."""

    values: np.ndarray

    @staticmethod
    def from_array(a: np.ndarray) -> "DataMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise InvalidInputError(f"expected a 2-d array, got shape {a.shape}")
        p, n = a.shape
        if p < 1 or n < 1:
            raise InvalidInputError(f"data matrix must be non-empty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("data entries must be finite")
        a = a.copy()
        a.flags.writeable = False
        return DataMatrix(a)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def is_centered(self) -> bool:
        scale = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if scale == 0.0:
            return True
        tol = CENTERING_RTOL * self.n * scale
        return float(np.max(np.abs(self.values.mean(axis=1)))) <= tol


@dataclass(frozen=True)
class CovPair:
    """Both sample-covariance conventions from one centered data matrix."""

    n: int
    mle: SymMat

    @property
    def unbiased(self) -> SymMat:
        """(n / (n - 1)) * ``mle``, built on each access."""
        s = (self.n / (self.n - 1)) * self.mle.values
        s.flags.writeable = False
        return SymMat(s)


def center_columns(x: DataMatrix) -> DataMatrix:
    """Subtract each variable's empirical mean (row means become 0)."""
    if x.n < 2:
        raise InvalidInputError(f"centering needs at least 2 observations, got n={x.n}")
    centered = x.values - x.values.mean(axis=1, keepdims=True)
    return DataMatrix.from_array(centered)


def cov_pair(x: DataMatrix) -> CovPair:
    """Sample covariance X X^T / n of centered data (X X^T / (n - 1) on demand)."""
    if x.n < 2:
        raise InvalidInputError(f"covariance needs at least 2 observations, got n={x.n}")
    if not x.is_centered():
        raise InvalidInputError("data matrix must be column-centered; call center_columns first")
    xx = x.values @ x.values.T
    xx = 0.5 * (xx + xx.T)
    return CovPair(n=x.n, mle=SymMat.from_array(xx / x.n))


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


def schur(a: SymMat, b: SymMat) -> SymMat:
    """Entrywise (Schur) product."""
    if a.dim != b.dim:
        raise InvalidInputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SymMat.from_array(a.values * b.values)


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
    return DataMatrix.from_array(np.asarray(rows, dtype=np.float64))


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
