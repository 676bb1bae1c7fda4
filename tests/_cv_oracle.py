"""Per-delta cross-validation oracle: one dense hard-threshold pass per delta.

It builds every thresholded estimate explicitly with ``_apply_hard`` and
sums its squared error, where ``cdcov.baselines.cross_validate_delta``
scores the whole grid in one sorted pass per fold. Agreement between the
two checks the sorted pass's counting and its loss identity. The folds'
covariances and thresholds are restated with numpy alone, in the
package's operation order, so the comparisons stay exact and a fault in
the package's helpers does not reappear here.
"""

from __future__ import annotations

import numpy as np

from cdcov import AtConfig, DataMatrix, RngSeed
from cdcov.baselines import _apply_hard, _fold_slices


def _cov(x):
    """(centered x, MLE covariance), restated with numpy in the package's operation order."""
    xc = x - x.mean(axis=1, keepdims=True)
    return xc, xc @ xc.T / x.shape[1]


def fold_parts(x: DataMatrix, cfg: AtConfig, seed: RngSeed):
    """(s_train, s_val, base) for each fold, built as the package builds them, without its helpers."""
    parts = []
    for val_idx in _fold_slices(x.n, cfg.folds, seed.generator()):
        mask = np.ones(x.n, dtype=bool)
        mask[val_idx] = False
        xc, s_train = _cov(x.values[:, mask])
        n_train = xc.shape[1]
        x2 = xc * xc
        theta = np.maximum(x2 @ x2.T / n_train - s_train * s_train, 0.0)
        base = np.sqrt(theta * np.log(x.p) / n_train)
        parts.append((s_train, _cov(x.values[:, val_idx])[1], base))
    return parts


def fold_losses_direct(s, v, base, grid) -> np.ndarray:
    """Frobenius loss of the dense hard-threshold estimate at every delta."""
    return np.array([float(np.sum((_apply_hard(s, base, d) - v) ** 2)) for d in grid])


def cross_validate_delta_direct(x: DataMatrix, cfg: AtConfig, seed: RngSeed) -> float:
    """The chosen delta by the per-delta loop; ties go to the smallest delta."""
    if len(cfg.delta_grid) == 1:
        return cfg.delta_grid[0]
    losses = np.zeros(len(cfg.delta_grid))
    for s, v, base in fold_parts(x, cfg, seed):
        losses += fold_losses_direct(s, v, base, cfg.delta_grid)
    return cfg.delta_grid[int(np.argmin(losses))]
