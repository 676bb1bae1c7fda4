"""Per-delta cross-validation oracle: one dense hard-threshold pass per delta.

It builds every thresholded estimate explicitly with ``_apply_hard`` and
sums its squared error, where ``cdcov.baselines.cross_validate_delta``
scores the whole grid in one sorted pass per fold. Agreement between the
two checks the sorted pass's counting and its loss identity.
"""

from __future__ import annotations

import numpy as np

from cdcov import AtConfig, DataMatrix, RngSeed
from cdcov.baselines import _apply_hard, _entry_variances, _fold_slices, _sample_cov


def fold_parts(x: DataMatrix, cfg: AtConfig, seed: RngSeed):
    """(s_train, s_val, base) for each fold, built as the package builds them."""
    parts = []
    for val_idx in _fold_slices(x.n, cfg.folds, seed.generator()):
        mask = np.ones(x.n, dtype=bool)
        mask[val_idx] = False
        x_train = x.values[:, mask]
        s_train = _sample_cov(x_train)
        theta = _entry_variances(x_train, s_train)
        base = np.sqrt(theta * np.log(x.p) / x_train.shape[1])
        parts.append((s_train, _sample_cov(x.values[:, val_idx]), base))
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
