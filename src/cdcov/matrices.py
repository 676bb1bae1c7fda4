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


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``; a bool, a non-integer (:class:`RngSeed`'s rule) or a value below ``minimum`` is an input error that names it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_real(name: str, value, low: float, high: float, *, closed: bool = False) -> float:
    """``value`` as a ``float`` in (low, high), or in [low, high) when ``closed``; anything else is an input error that names it."""
    # a bool or a non-number first: ``"0.5" < 1`` is a bare TypeError, and ``True`` compares as 1
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    if not (low <= value < high if closed else low < value < high):  # NaN fails every comparison
        raise InvalidInputError(f"{name} must lie in {'[' if closed else '('}{low}, {high}), got {value}")
    return float(value)


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
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0 or v >= 2**64:
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
        if not np.isfinite(a).all():
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

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the matrix, as a read-only view."""
        return self.values[start:stop]


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
        if not np.isfinite(a).all():
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
    """Subtract each variable's empirical mean (row means become 0).

    Finite data whose row sum or centered entries overflow float64 is an
    input error that names the first such variable.
    """
    if x.n < 2:
        raise InvalidInputError(f"centering needs at least 2 observations, got n={x.n}")
    with np.errstate(over="ignore"):
        c = x.values - x.values.mean(axis=1, keepdims=True)
    try:
        return DataMatrix(c)
    except InvalidInputError:
        # x is finite, so the only fault DataMatrix can find is an overflow
        i = int(np.flatnonzero(~np.isfinite(c).all(axis=1))[0])
        raise InvalidInputError(f"centering variable {i} (row {i + 1}) overflows float64") from None


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
    """Frobenius norm sqrt(sum of squared entries), with no p x p temporary."""
    v = a.values.ravel(order="K")  # a view for an array in C or Fortran order
    return float(np.sqrt(np.vdot(v, v)))


def op_norm(a: SymMat) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, by a dense symmetric eigensolve.

    A LAPACK failure to converge raises :class:`NumericalError`.
    """
    try:
        w = np.linalg.eigvalsh(a.values)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve did not converge ({exc})") from exc
    return float(np.max(np.abs(w)))


def _csv_rows(path: str | Path):
    """(csv's line_num, row) for each nonblank row of a UTF-8 CSV file, BOM or not; an unreadable file is an input error."""
    try:
        f = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot open input file ({exc.strerror})") from exc
    with f:
        reader = csv.reader(f)
        try:
            for row in reader:
                if row:
                    yield reader.line_num, row
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not a text file ({exc})") from exc


def load_data_matrix(path: str | Path, *, header: bool = False) -> DataMatrix:
    """Read a p x n data matrix from CSV (rows = variables, cols = observations); ``header`` skips the first nonblank row."""
    rows: list[np.ndarray] = []
    lines = _csv_rows(path)
    if header:
        next(lines, None)
    for line, row in lines:
        try:
            rows.append(np.array(row, dtype=np.float64))  # float() on each field
        except ValueError as exc:
            raise InvalidInputError(f"{path}: non-numeric value on line {line}: {exc}") from exc
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    widths = {r.size for r in rows}
    if len(widths) != 1:
        raise InvalidInputError(f"{path}: ragged rows (widths {sorted(widths)})")
    return DataMatrix(np.vstack(rows))


# Fields save_sym_mat formats at a time, in whole rows; a block's formatter arrays peak at about 1.5 MB.
_BLOCK_FIELDS = 8192

# fl(10**E) for E in [-4, 16], built from decimal strings: each is the smallest
# float64 whose %.17g exponent is E, so searchsorted on |x| reads E exactly.
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
_POW10 = np.array([float(10**k) for k in range(21)])  # exact: 10**k = 5**k * 2**k, 5**20 < 2**47

# _format_fields lays a field out in 42 slots: a sign, "0" (for E < 0), the 17
# digits as integer part (digit i kept for i <= E), the point, "000" (the first
# -1 - E of them kept), the 17 digits as fraction (digit i kept for
# E < i <= the last nonzero digit), then "\r\n" or ",". The fallback's text,
# 24 bytes at most (-1.7976931348623157e+308), goes in the first 24 slots.
_FIELD = 24
_TEMPLATE = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17 + b",\n", dtype=np.uint8)


def _keep_table() -> np.ndarray:
    """Slots kept for each (E, last nonzero digit, row end), E in [-4, 15] and last in [-1, 16]."""
    e = np.arange(-4, 16)[:, None, None, None]
    last = np.arange(-1, 17)[None, :, None, None]
    end = np.array([False, True])[None, None, :, None]
    digit = np.arange(17)
    keep = np.zeros((20, 18, 2, _TEMPLATE.size), dtype=bool)
    keep[..., 1] = (e < 0)[..., 0]
    keep[..., 2:19] = digit <= e
    keep[..., 19] = (e < last)[..., 0]  # a field with E < 0 has last >= 0
    keep[..., 20:23] = digit[:3] < -1 - e
    keep[..., 23:40] = (digit > e) & (digit <= last)
    keep[..., 40] = True
    keep[..., 41] = end[..., 0]
    return keep.reshape(-1, _TEMPLATE.size)


_KEEP = _keep_table()
_RANK = np.arange(1, 18, dtype=np.uint8)[:, None]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each float64 into a high and a low half of at most 26 bits each: a = hi + lo exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, E) for each float64 in ``x``: |x| to 17 significant digits is D * 10**(E - 16).

    A field in ``%.17g``'s fixed notation, 1e-4 <= |x| < 1e16, reads E from
    the decade starts, and D = round(|x| * 10**(16 - E)) lands in
    [10**16, 10**17). Dekker's product gives y = fl(|x| * 10**k) and its exact
    error err; y >= 2**53 is an even integer, so y + rint(err) is the product
    rounded half to even. A zero is D = 0 at E = 0; D is 0 also for every
    field outside the domain.
    """
    ax = np.abs(x)
    i = np.searchsorted(_DECADES, ax, side="right")
    inside = (i > 0) & (i < _DECADES.size)
    e = np.where(inside, i - 5, 0)  # _DECADES[i - 1] = 10**(i - 5) <= |x|
    a = np.where(inside, ax, 0.0)  # so no field outside the domain can overflow the split
    b = _POW10[16 - e]
    y = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    err = ((a_hi * b_hi - y) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return y.astype(np.int64) + np.rint(err).astype(np.int64), e


def _ascii17(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, last1): the 17 ASCII digits of each D as an (n, 17) view, and 1 + the index of its last nonzero digit."""
    # uint32 ops with scalar divisors, on the leading digit and two 8-digit halves
    hi9 = (d // 10**8).astype(np.uint32)
    lo8 = (d % 10**8).astype(np.uint32)
    digits = np.empty((17, d.size), dtype=np.uint8)
    digits[0] = hi9 // 100_000_000
    hi8 = hi9 % 100_000_000
    for i in range(8, 0, -1):
        hq, lq = hi8 // 10, lo8 // 10
        digits[i] = hi8 - hq * 10
        digits[8 + i] = lo8 - lq * 10
        hi8, lo8 = hq, lq
    last1 = ((digits != 0) * _RANK).max(axis=0)
    digits += 48
    return digits.T, last1


def _format_fields(x: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of :func:`fmt_float` of each float64 in ``x``, followed by ``\\r\\n`` where ``ends`` holds, else by ``,``.

    Fields that :func:`_decimal17` places are laid out from their digits;
    every other field is formatted by :func:`fmt_float` on its own.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    d, e = _decimal17(x)
    digits, last1 = _ascii17(d)
    out = np.empty((x.size, _TEMPLATE.size), dtype=np.uint8)
    out[:] = _TEMPLATE
    out[:, 2:19] = digits
    out[:, 23:40] = digits
    out[ends, 40] = 13
    keep = _KEEP[((e + 4) * 18 + last1) * 2 + ends]
    keep[:, 0] = np.signbit(x)
    slow = np.flatnonzero((d == 0) & (x != 0.0))
    if slow.size:
        text = np.array([fmt_float(v) for v in x[slow]], dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
        out[slow, :_FIELD] = text
        keep[slow, :_FIELD] = text != 0
    return out[keep].tobytes()


def _row_blocks(p: int):
    """(start, stop) of each block of whole rows that :func:`save_sym_mat` writes at a time: ``max(1, _BLOCK_FIELDS // p)`` rows."""
    rows = max(1, _BLOCK_FIELDS // p)
    return ((start, min(start + rows, p)) for start in range(0, p, rows))


def save_sym_mat(a: SymMat, path: str | Path) -> None:
    """Write the full square matrix as CSV with round-trippable floats.

    ``a`` is a :class:`SymMat` or any matrix with ``dim`` and ``rows(start,
    stop)``, such as :class:`~cdcov.estimator.CdEstimate`: the writer asks
    for one block of whole rows at a time (about 8,192 fields, one row when
    p is larger), so it holds no p x p matrix of its own. The bytes are
    those of ``csv.writer`` rows of :func:`fmt_float` fields
    (``format(x, ".17g")``): no number needs quoting, and rows end in the
    csv module's ``\\r\\n``. The fields are formatted by a vectorized
    ``%.17g`` whose digits come from an exact float product; a nonzero field
    outside its fixed-notation range 1e-4 <= |x| < 1e16 falls back to
    :func:`fmt_float`.
    """
    p = a.dim
    with open(path, "wb") as f:
        for start, stop in _row_blocks(p):
            ends = np.zeros((stop - start, p), dtype=bool)
            ends[:, -1] = True
            f.write(_format_fields(a.rows(start, stop).ravel(), ends.ravel()))


def load_sym_mat(path: str | Path) -> SymMat:
    dm = load_data_matrix(path)
    return SymMat.from_array(dm.values)
