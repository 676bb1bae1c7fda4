"""Workload inputs, generated from the run's seed with numpy alone.

The child process that times the ops and the parent that checks their
outputs both call these functions, so they see the same arrays.
"""

from __future__ import annotations

import numpy as np

# Second entropy word of each input stream, so the streams never overlap.
_ESTIMATE_DATA = 1
_ESTIMATE_WARMUP = 2
_SURE_POOL = 3


def factor_data(p: int, n: int, factors: int, rng: np.random.Generator) -> np.ndarray:
    """p x n data from a ``factors``-factor model with unit idiosyncratic noise."""
    loadings = rng.standard_normal((p, factors))
    return loadings @ rng.standard_normal((factors, n)) + rng.standard_normal((p, n))


def estimate_data(params: dict, seed: int, *, warmup: bool = False) -> np.ndarray:
    """The CSV the ``estimate`` op reads; the warm-up CSV has ``warmup_p`` rows."""
    tag = _ESTIMATE_WARMUP if warmup else _ESTIMATE_DATA
    p = params["warmup_p"] if warmup else params["p"]
    return factor_data(p, params["n"], params["factors"], np.random.default_rng([seed, tag]))


def write_csv(x: np.ndarray, path) -> None:
    """Rows of ``x`` as CSV; ``repr`` round-trips every float64 exactly."""
    with open(path, "w") as f:
        for row in x.tolist():
            f.write(",".join(map(repr, row)))
            f.write("\n")


def sure_pool(params: dict, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``pool`` pairs (centred p x n data, true covariance) for the SURE loop."""
    rng = np.random.default_rng([seed, _SURE_POOL])
    p, n, factors = params["p"], params["n"], params["factors"]
    pool = []
    for _ in range(params["pool"]):
        loadings = rng.standard_normal((p, factors))
        sigma0 = loadings @ loadings.T + np.eye(p)
        x = np.linalg.cholesky(sigma0) @ rng.standard_normal((p, n))
        pool.append((x - x.mean(axis=1, keepdims=True), sigma0))
    return pool
