"""Comparator estimators: adaptive hard thresholding and a simplified POET.

Adaptive thresholding keeps a sample-covariance entry s_jj' only when it
exceeds an entry-specific threshold delta * sqrt(theta_jj' * log(p) / n),
where theta_jj' is the empirical variance of the products x_j x_j'. The
global factor delta is picked by K-fold cross-validation against the
left-out fold's sample covariance.

POET keeps the top-K spectral component of the sample covariance and
applies the same adaptive thresholding to the principal orthogonal
complement (the covariance of the data with the top-K principal
directions projected out).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .matrices import CovPair, DataMatrix, RngSeed, SymMat, cov_pair

__all__ = [
    "AtConfig",
    "PoetConfig",
    "default_delta_grid",
    "cross_validate_delta",
    "hard_threshold_estimate",
    "adaptive_threshold",
    "poet",
]

log = logging.getLogger(__name__)

# Eigenvalues below this fraction of the largest count as zero for rank checks.
_RANK_RTOL = 1e-10


def default_delta_grid() -> tuple[float, ...]:
    """50 log-spaced candidate values in [0.05, 5]."""
    return tuple(float(v) for v in np.geomspace(0.05, 5.0, 50))


@dataclass(frozen=True)
class AtConfig:
    """Adaptive-thresholding configuration."""

    delta_grid: tuple[float, ...] = field(default_factory=default_delta_grid)
    folds: int = 5

    def __post_init__(self) -> None:
        grid = tuple(float(v) for v in self.delta_grid)
        object.__setattr__(self, "delta_grid", grid)
        if not grid:
            raise InvalidInputError("delta_grid must be nonempty")
        if any(v < 0.0 for v in grid):
            raise InvalidInputError("delta values must be nonnegative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError("delta_grid must be strictly increasing")
        if self.folds < 2:
            raise InvalidInputError(f"folds must be >= 2, got {self.folds}")


@dataclass(frozen=True)
class PoetConfig:
    """POET configuration: retained factor count plus residual thresholding."""

    n_factors: int
    residual_threshold: AtConfig = field(default_factory=AtConfig)

    def __post_init__(self) -> None:
        if self.n_factors < 0:
            raise InvalidInputError(f"n_factors must be >= 0, got {self.n_factors}")


def _sample_cov(x: np.ndarray) -> np.ndarray:
    """MLE covariance of columns, centered within the given sample."""
    xc = x - x.mean(axis=1, keepdims=True)
    return xc @ xc.T / x.shape[1]


def _entry_variances(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """theta_jj' = mean_t (x_jt x_j't - s_jj')^2, vectorized over entries."""
    xc = x - x.mean(axis=1, keepdims=True)
    x2 = xc * xc
    second = (x2 @ x2.T) / x.shape[1]
    theta = second - s * s
    return np.maximum(theta, 0.0)


def _threshold_base(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sqrt(theta_jj' * log(p) / n): the entry thresholds at delta = 1."""
    p, n = x.shape
    theta = _entry_variances(x, s)
    n_degenerate = int(np.count_nonzero(theta == 0.0))
    if n_degenerate:
        # Zero product variance means a constant product; threshold 0 keeps it.
        log.debug("adaptive threshold: %d entries with zero product variance", n_degenerate)
    return np.sqrt(theta * np.log(p) / n)


def _apply_hard(s: np.ndarray, thr: np.ndarray) -> np.ndarray:
    out = np.where(np.abs(s) > thr, s, 0.0)
    np.fill_diagonal(out, np.diag(s))
    return out


def _fold_slices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _kept_counts(a: np.ndarray, b: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per entry, how many grid deltas keep it: #{i : a > grid[i] * b}.

    ``a`` and ``b`` are nonnegative and ``grid`` strictly increasing, so
    the kept deltas are a prefix of the grid. A sorted search on a / b
    finds the prefix up to rounding; stepping with the exact product
    predicate that ``_apply_hard`` evaluates makes it agree entry for entry.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(a, b)
        # 0/0 is nan, which sorts above the grid; a zero entry is never kept,
        # so it starts at 0 instead of stepping down the whole grid
        ratio[a == 0.0] = 0.0
        count = np.searchsorted(grid, ratio)
        above = np.append(grid, np.inf)  # inf * b is inf or nan, never below a
        step = a > np.multiply(above[count], b, out=ratio)
        while step.any():
            count += step
            step &= a > np.multiply(above[count], b, out=ratio)
        below = np.append(0.0, grid)  # below[c] = grid[c - 1]; below[0] is unused
        step = (count > 0) & ~(a > np.multiply(below[count], b, out=ratio))
        while step.any():
            count -= step
            step &= (count > 0) & ~(a > np.multiply(below[count], b, out=ratio))
    return count


def _fold_losses(
    s: np.ndarray, v: np.ndarray, base: np.ndarray, grid: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """||_apply_hard(s, delta * base) - v||_F^2 for every delta in ``grid``.

    Keeping an entry costs (s - v)^2 and dropping it v^2, so each loss is
    ||v||_F^2 plus s (s - 2v) summed over the kept entries. The three
    matrices are exactly symmetric, so the strict upper triangle (the
    boolean mask ``upper``) counts each off-diagonal pair once, with
    doubled weight; the diagonal is always kept.
    """
    d_s = np.diagonal(s)
    const = float(np.vdot(v, v)) + float(np.dot(d_s, d_s - 2.0 * np.diagonal(v)))
    su = s[upper]
    gain = v[upper]
    gain *= -2.0
    gain += su
    gain *= su
    counts = _kept_counts(np.abs(su, out=su), base[upper], grid)
    by_count = np.bincount(counts, weights=gain, minlength=grid.size + 1)
    # the loss at grid[i] sums the gains of entries kept by more than i deltas
    kept_gain = np.cumsum(by_count[:0:-1])[::-1]
    return const + 2.0 * kept_gain


def cross_validate_delta(x: DataMatrix, cfg: AtConfig, seed: RngSeed) -> float:
    """delta minimizing the mean Frobenius loss against held-out covariances.

    Folds come from one seeded permutation split into near-equal parts;
    ties in the loss resolve to the smallest delta.
    """
    if x.n < cfg.folds:
        raise InvalidInputError(f"need n >= folds, got n={x.n}, folds={cfg.folds}")
    if len(cfg.delta_grid) == 1:
        return cfg.delta_grid[0]
    folds = _fold_slices(x.n, cfg.folds, seed.generator())
    grid = np.asarray(cfg.delta_grid)
    upper = np.triu(np.ones((x.p, x.p), dtype=bool), 1)
    losses = np.zeros(grid.size)
    for val_idx in folds:
        mask = np.ones(x.n, dtype=bool)
        mask[val_idx] = False
        x_train = x.values[:, mask]
        x_val = x.values[:, val_idx]
        s_train = _sample_cov(x_train)
        s_val = _sample_cov(x_val)
        base = _threshold_base(x_train, s_train)
        losses += _fold_losses(s_train, s_val, base, grid, upper)
    return cfg.delta_grid[int(np.argmin(losses))]


def hard_threshold_estimate(pair: CovPair, delta: float) -> SymMat:
    """Entry-adaptive hard thresholding of the sample covariance at ``delta``.

    The diagonal is never thresholded, and surviving off-diagonal entries
    equal the sample covariance exactly.
    """
    if delta < 0.0:
        raise InvalidInputError("delta must be nonnegative")
    s = pair.mle.values
    return SymMat(_apply_hard(s, delta * _threshold_base(pair.x.values, s)))


def adaptive_threshold(pair: CovPair, cfg: AtConfig, seed: RngSeed) -> SymMat:
    """Cross-validated adaptive hard thresholding of the sample covariance."""
    delta = cross_validate_delta(pair.x, cfg, seed)
    return hard_threshold_estimate(pair, delta)


def poet(pair: CovPair, cfg: PoetConfig, seed: RngSeed) -> SymMat:
    """Top-K spectral part plus adaptively thresholded residual covariance.

    ``n_factors = 0`` degenerates to plain adaptive thresholding. The factor
    count may not exceed the numerical rank of the sample covariance (equal
    is allowed: the residual is then zero).
    """
    x = pair.x
    if cfg.n_factors >= min(x.n, x.p) and cfg.n_factors > 0:
        raise InvalidInputError(
            f"n_factors must be < min(n, p) = {min(x.n, x.p)}, got {cfg.n_factors}"
        )
    if cfg.n_factors == 0:
        return adaptive_threshold(pair, cfg.residual_threshold, seed)
    w, v = np.linalg.eigh(pair.mle.values)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    rank = int(np.count_nonzero(w > _RANK_RTOL * max(float(w[0]), 1.0)))
    if cfg.n_factors > rank:
        raise InvalidInputError(
            f"n_factors={cfg.n_factors} exceeds the sample covariance rank {rank}"
        )
    top = v[:, : cfg.n_factors]
    spectral = (top * w[: cfg.n_factors][None, :]) @ top.T
    # projecting out the top directions preserves centering exactly in real
    # arithmetic; re-centering removes the floating-point dust
    residual = x.values - top @ (top.T @ x.values)
    residual_data = DataMatrix(residual - residual.mean(axis=1, keepdims=True))
    residual_est = adaptive_threshold(cov_pair(residual_data), cfg.residual_threshold, seed)
    # the spectral part is symmetric only up to rounding
    return SymMat.from_array(spectral + residual_est.values)
