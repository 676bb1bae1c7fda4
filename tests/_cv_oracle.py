"""Per-delta cross-validation oracle: one dense hard-threshold pass per delta.

It builds every thresholded estimate explicitly with ``_apply_hard`` and
sums its squared error, where ``cdcov.baselines.cross_validate_delta``
scores the whole grid per fold from one comparison sweep that counts each
pair's kept deltas. Agreement between the two checks the sweep's counting
and its loss identity. ``fold_losses_sorted`` restates the fold losses with
a left-sided sorted search in place of the sweep, the formula the package
used before it; the two must agree byte for byte. The folds' covariances
and thresholds are restated with numpy alone, in the package's operation
order, on whole matrices, so the comparisons stay exact and a fault in the
package's helpers does not reappear here. Thresholds are handed on as the
strict upper triangle, in its row-major order, as the package forms them.
``cross_validate_delta_sorted``, ``hard_threshold_dense`` and ``poet_dense``
carry the sorted search and whole-matrix thresholding through to AT's
delta and estimate and POET's estimate, so edge inputs can be pinned to
those values byte for byte.
"""

from __future__ import annotations

import numpy as np

from cdcov import AtConfig, CovPair, DataMatrix, PoetConfig, RngSeed, SymMat, cov_pair
from cdcov.baselines import _apply_hard, _fold_slices, _ratios


def upper_mask(p):
    """The boolean mask of a p x p matrix's strict upper triangle."""
    return np.triu(np.ones((p, p), dtype=bool), 1)


def _cov(x):
    """(centered x, MLE covariance), restated with numpy in the package's operation order."""
    xc = x - x.mean(axis=1, keepdims=True)
    return xc, xc @ xc.T / x.shape[1]


def fold_parts(x: DataMatrix, cfg: AtConfig, seed: RngSeed):
    """(s_train, s_val, base) for each fold, built as the package builds them, without its helpers.

    ``base`` is the whole matrix's strict upper triangle.
    """
    parts = []
    for val_idx in _fold_slices(x.n, cfg.folds, seed.generator()):
        mask = np.ones(x.n, dtype=bool)
        mask[val_idx] = False
        xc, s_train = _cov(x.values[:, mask])
        n_train = xc.shape[1]
        x2 = xc * xc
        theta = np.maximum(x2 @ x2.T / n_train - s_train * s_train, 0.0)
        base = np.sqrt(theta * np.log(x.p) / n_train)[upper_mask(x.p)]
        parts.append((s_train, _cov(x.values[:, val_idx])[1], base))
    return parts


def fold_losses_direct(s, v, base, grid) -> np.ndarray:
    """Frobenius loss of the dense hard-threshold estimate at every delta, for ``base`` on the strict upper triangle."""
    upper = upper_mask(s.shape[0])
    return np.array([float(np.sum((_apply_hard(s, base, d, upper) - v) ** 2)) for d in grid])


def fold_losses_sorted(s, v, base, grid, upper) -> np.ndarray:
    """``_fold_losses`` with each pair's kept deltas counted by a left-sided sorted search of its ratio."""
    d_s = np.diagonal(s)
    const = float(np.vdot(v, v)) + float(np.dot(d_s, d_s - 2.0 * np.diagonal(v)))
    su = s[upper]
    gain = v[upper]
    gain *= -2.0
    gain += su
    gain *= su
    counts = np.searchsorted(grid, _ratios(np.abs(su, out=su), base))
    by_count = np.bincount(counts, weights=gain, minlength=grid.size + 1)
    kept_gain = np.cumsum(by_count[:0:-1])[::-1]
    return const + 2.0 * kept_gain


def cross_validate_delta_direct(x: DataMatrix, cfg: AtConfig, seed: RngSeed) -> float:
    """The chosen delta by the per-delta loop; ties go to the smallest delta."""
    if len(cfg.delta_grid) == 1:
        return cfg.delta_grid[0]
    losses = np.zeros(len(cfg.delta_grid))
    for s, v, base in fold_parts(x, cfg, seed):
        losses += fold_losses_direct(s, v, base, cfg.delta_grid)
    return cfg.delta_grid[int(np.argmin(losses))]


def cross_validate_delta_sorted(x: DataMatrix, cfg: AtConfig, seed: RngSeed) -> float:
    """The chosen delta from ``fold_losses_sorted`` on whole-matrix folds: the package's choice, restated."""
    if len(cfg.delta_grid) == 1:
        return cfg.delta_grid[0]
    grid = np.asarray(cfg.delta_grid)
    losses = np.zeros(grid.size)
    for s, v, base in fold_parts(x, cfg, seed):
        losses += fold_losses_sorted(s, v, base, grid, upper_mask(x.p))
    return cfg.delta_grid[int(np.argmin(losses))]


def hard_threshold_dense(pair: CovPair, delta: float) -> np.ndarray:
    """``hard_threshold_estimate``'s values, thresholding the whole matrix against the whole base."""
    s, x = pair.mle.values, pair.x.values
    xc = x - x.mean(axis=1, keepdims=True)
    x2 = xc * xc
    base = np.sqrt(np.maximum(x2 @ x2.T / pair.n - s * s, 0.0) * np.log(s.shape[0]) / pair.n)
    out = np.where(_ratios(np.abs(s), base) > delta, s, 0.0)
    np.fill_diagonal(out, np.diag(s))
    return out


def poet_dense(pair: CovPair, cfg: PoetConfig, seed: RngSeed) -> np.ndarray:
    """``poet``'s values from the restated thresholding, for 0 < K < min(n, p) within the rank."""
    w, v = np.linalg.eigh(pair.mle.values)
    order = np.argsort(w)[::-1][: cfg.n_factors]
    top = v[:, order]
    spectral = (top * w[order][None, :]) @ top.T
    residual = cov_pair(DataMatrix(pair.x.values - top @ (top.T @ pair.x.values)))
    delta = cross_validate_delta_sorted(residual.x, cfg.residual_threshold, seed)
    return SymMat.from_array(spectral + hard_threshold_dense(residual, delta)).values
