"""Comparator estimators: adaptive hard thresholding and a simplified POET.

Adaptive thresholding keeps an off-diagonal sample-covariance entry s_jj'
when its ratio |s_jj'| / sqrt(theta_jj' * log(p) / n) exceeds delta, where
theta_jj' is the empirical variance of the products x_j x_j'; a zero base
keeps every nonzero entry. The fit and the cross-validation evaluate this
one quotient rule. The global factor delta is picked by K-fold
cross-validation against the left-out fold's sample covariance.
Each fold centers its training columns once: ``_centered_cov`` returns them
with their covariance, and ``_threshold_base`` reads both. The base is formed
on the strict upper triangle only, the one copy of each pair that the fold
losses and the fit read. Each fold scores the whole grid at once: one
comparison sweep over the grid counts every pair's kept deltas, one pass
over the pairs per delta, which beats a sorted search of each ratio up to
about 200 deltas at p = 250 (the default grid has 50).

POET keeps the top-K spectral component of the sample covariance and
applies the same adaptive thresholding to the principal orthogonal
complement (the covariance of the data with the top-K principal
directions projected out). It copies only the K eigenvectors it keeps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .matrices import CovPair, DataMatrix, RngSeed, SymMat, _check_count, _check_real, cov_pair

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

DELTA_MIN, DELTA_MAX, DELTA_COUNT = 0.05, 5.0, 50  # the default delta grid


def default_delta_grid(lo: float = DELTA_MIN, hi: float = DELTA_MAX, count: int = DELTA_COUNT) -> tuple[float, ...]:
    """``count`` log-spaced deltas from ``lo`` to ``hi``, both in (0, inf); empty for count = 0."""
    for name, value in (("delta_min", lo), ("delta_max", hi)):
        _check_real(name, value)
        if not 0.0 < value < np.inf:  # also rejects NaN
            raise InvalidInputError(f"{name} must lie in (0, inf), got {value}")
    _check_count("delta_count", count)
    if count < 0:
        raise InvalidInputError(f"delta_count must be >= 0, got {count}")
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


@dataclass(frozen=True)
class AtConfig:
    """Adaptive-thresholding configuration."""

    delta_grid: tuple[float, ...] = field(default_factory=default_delta_grid)
    folds: int = 5

    def __post_init__(self) -> None:
        try:
            grid = tuple(self.delta_grid)
        except TypeError as exc:
            raise InvalidInputError(f"delta_grid must be a sequence of numbers, got {self.delta_grid!r}") from exc
        for v in grid:
            _check_real("delta_grid entry", v)
        grid = tuple(float(v) for v in grid)
        object.__setattr__(self, "delta_grid", grid)
        if not grid:
            raise InvalidInputError("delta_grid must be nonempty")
        if not all(0.0 <= v < np.inf for v in grid):  # also rejects NaN
            raise InvalidInputError(f"delta values must be finite and nonnegative, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError("delta_grid must be strictly increasing")
        _check_count("folds", self.folds)
        if self.folds < 2:
            raise InvalidInputError(f"folds must be >= 2, got {self.folds}")


@dataclass(frozen=True)
class PoetConfig:
    """POET configuration: retained factor count plus residual thresholding."""

    n_factors: int
    residual_threshold: AtConfig = field(default_factory=AtConfig)

    def __post_init__(self) -> None:
        _check_count("n_factors", self.n_factors)
        if self.n_factors < 0:
            raise InvalidInputError(f"n_factors must be >= 0, got {self.n_factors}")


def _centered_cov(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xc, xc xc^T / n): the columns centered within the given sample, and their MLE covariance."""
    xc = x - x.mean(axis=1, keepdims=True)
    return xc, xc @ xc.T / x.shape[1]


def _upper(p: int) -> np.ndarray:
    """The boolean mask of a p x p matrix's strict upper triangle."""
    return np.triu(np.ones((p, p), dtype=bool), 1)


def _threshold_base(xc: np.ndarray, s: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """sqrt(theta_jj' * log(p) / n), theta_jj' = mean_t (x_jt x_j't - s_jj')^2, for centered columns ``xc``.

    Only the strict upper triangle (the boolean mask ``upper``) is formed, as
    a vector in its row-major order: both matrices are exactly symmetric, and
    each elementwise step gives the same bits on the gathered entries as on
    the whole matrix.
    """
    p, n = xc.shape
    x2 = xc * xc
    theta = (x2 @ x2.T)[upper]
    theta /= n
    su = s[upper]
    su *= su
    theta -= su
    np.maximum(theta, 0.0, out=theta)
    if log.isEnabledFor(logging.DEBUG):
        n_degenerate = int(np.count_nonzero(theta == 0.0))
        if n_degenerate:
            # Zero product variance means a constant product; threshold 0 keeps it.
            log.debug("adaptive threshold: %d pairs with zero product variance", n_degenerate)
    theta *= np.log(p)
    theta /= n
    return np.sqrt(theta, out=theta)


def _ratios(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b for nonnegative a and b, with x / 0 = inf and 0 / 0 (any NaN) read as 0.

    AT's one rule: an entry with |s| / base > delta is kept at delta.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(a, b)
    ratio[np.isnan(ratio)] = 0.0
    return ratio


def _apply_hard(s: np.ndarray, base: np.ndarray, delta: float, upper: np.ndarray) -> np.ndarray:
    """``s`` hard-thresholded at ``delta`` off the diagonal, for ``base`` on the strict upper triangle ``upper``.

    The kept upper entries are mirrored below the diagonal: s and the base are
    exactly symmetric, so a lower entry's ratio equals its mirror's.
    """
    su = s[upper]
    su[_ratios(np.abs(su), base) <= delta] = 0.0
    out = np.zeros_like(s)
    out[upper] = su
    out.T[upper] = su
    np.fill_diagonal(out, np.diag(s))
    return out


def _fold_slices(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _kept_counts(ratio: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """#{delta in ``grid`` : ratio > delta} for each ratio, by one comparison sweep over the grid.

    For a strictly increasing grid this is a left-sided sorted search of each
    ratio. The counts take the smallest unsigned integer type that holds the
    grid's length. The sweep makes one pass over the ratios per delta: at
    p = 250 it beats the sorted search up to about 200 deltas and loses
    beyond.
    """
    counts = np.zeros(ratio.size, dtype=np.min_scalar_type(grid.size))
    for delta in grid:
        counts += ratio > delta
    return counts


def _fold_losses(
    s: np.ndarray, v: np.ndarray, base: np.ndarray, grid: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """||_apply_hard(s, base, delta, upper) - v||_F^2 for every delta in ``grid``.

    Keeping an entry costs (s - v)^2 and dropping it v^2, so each loss is
    ||v||_F^2 plus s (s - 2v) summed over the kept entries. The matrices are
    exactly symmetric, so the strict upper triangle (the boolean mask
    ``upper``, on which ``base`` is given) counts each off-diagonal pair
    once, with doubled weight; the diagonal is always kept. An entry is kept
    at delta when its ratio |s| / base exceeds delta; ``grid`` is strictly
    increasing, so its kept deltas are a prefix of the grid, and
    ``_kept_counts`` finds their number in one sweep over the grid.
    """
    d_s = np.diagonal(s)
    const = float(np.vdot(v, v)) + float(np.dot(d_s, d_s - 2.0 * np.diagonal(v)))
    su = s[upper]
    gain = v[upper]
    gain *= -2.0
    gain += su
    gain *= su
    counts = _kept_counts(_ratios(np.abs(su, out=su), base), grid)
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
    upper = _upper(x.p)
    losses = np.zeros(grid.size)
    for val_idx in folds:
        mask = np.ones(x.n, dtype=bool)
        mask[val_idx] = False
        xc, s_train = _centered_cov(x.values[:, mask])
        s_val = _centered_cov(x.values[:, val_idx])[1]
        losses += _fold_losses(s_train, s_val, _threshold_base(xc, s_train, upper), grid, upper)
    return cfg.delta_grid[int(np.argmin(losses))]


def hard_threshold_estimate(pair: CovPair, delta: float) -> SymMat:
    """Entry-adaptive hard thresholding of the sample covariance at ``delta``.

    The diagonal is never thresholded, and surviving off-diagonal entries
    equal the sample covariance exactly.
    """
    _check_real("delta", delta)
    if not 0.0 <= delta < np.inf:  # also rejects NaN
        raise InvalidInputError(f"delta must lie in [0, inf), got {delta}")
    s, x = pair.mle.values, pair.x.values
    upper = _upper(x.shape[0])
    # pair.x is centered already; centering it again keeps the estimate's last bits as they were
    return SymMat(_apply_hard(s, _threshold_base(x - x.mean(axis=1, keepdims=True), s, upper), delta, upper))


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
        raise InvalidInputError(f"n_factors must be < min(n, p) = {min(x.n, x.p)}, got {cfg.n_factors}")
    if cfg.n_factors == 0:
        return adaptive_threshold(pair, cfg.residual_threshold, seed)
    w, v = np.linalg.eigh(pair.mle.values)
    order = np.argsort(w)[::-1][: cfg.n_factors]
    rank = int(np.count_nonzero(w > _RANK_RTOL * max(float(w[order[0]]), 1.0)))
    if cfg.n_factors > rank:
        raise InvalidInputError(f"n_factors={cfg.n_factors} exceeds the sample covariance rank {rank}")
    top = v[:, order]
    spectral = (top * w[order][None, :]) @ top.T
    # projecting out the top directions preserves centering exactly in real
    # arithmetic; cov_pair's centering removes the floating-point dust
    residual = x.values - top @ (top.T @ x.values)
    residual_est = adaptive_threshold(cov_pair(DataMatrix(residual)), cfg.residual_threshold, seed)
    # the spectral part is symmetric only up to rounding
    return SymMat.from_array(spectral + residual_est.values)
