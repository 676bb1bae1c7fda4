"""Reference outputs for the output checks, written with numpy alone.

Nothing here imports cdcov. The functions restate the seed version's
mathematics (random-stream tree, setting-1 truth and data draws, the
closed-form SURE with the unbiased moment coefficients, the CD map and
the cell aggregation), so a check still holds after a refactor of the
package that keeps its outputs, and fails when the outputs drift.
"""

from __future__ import annotations

import numpy as np
from numpy.random import SeedSequence


def generator(seed: int, stream: int, *path: int) -> np.random.Generator:
    """Same stream as ``cdcov.RngSeed(seed, stream).generator(*path)``."""
    return np.random.default_rng(SeedSequence(entropy=seed, spawn_key=(stream, *path)))


def default_k_grid(p: int, step: int = 10) -> np.ndarray:
    grid = list(range(min(step, p), p + 1, step))
    if grid[-1] != p:
        grid.append(p)
    return np.asarray(grid, dtype=np.int64)


def cd_coeffs(p: int, k) -> tuple[np.ndarray, np.ndarray]:
    """(eta, gamma) of the CD map for each k."""
    k = np.asarray(k, dtype=np.float64)
    denom = p * (p * p - 1)
    return k * (p * k - 1) / denom, k * (p - k) / denom


def sample_covariances(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mle, unbiased) sample covariances of p x n data, centred here."""
    x = x - x.mean(axis=1, keepdims=True)
    n = x.shape[1]
    xx = x @ x.T
    xx = 0.5 * (xx + xx.T)
    return xx / n, xx / (n - 1)


def sure_curve(s_mle: np.ndarray, s_unb: np.ndarray, n: int, grid) -> np.ndarray:
    """Closed-form SURE(k) over ``grid`` (unbiased Wishart moment coefficients)."""
    p = s_mle.shape[0]
    m1, m2, p1 = n - 1, n - 2, n + 1
    a = n**2 * (n - 3) / (m1**2 * m2 * p1)
    b = n**2 / (m1 * m2 * p1)
    c = 2 * n**2 / (m1**2 * p1)
    d = 2 * n**2 / (m1 * m2 * p1)
    e = -2 * n**2 / (m1**2 * m2 * p1)
    eta, gamma = cd_coeffs(p, grid)
    q_hat = float(np.sum(s_unb**2))
    t_hat = float(np.trace(s_unb))
    d_sq = float(np.sum(np.diag(s_mle) ** 2))
    s_off = float(np.sum(s_mle**2)) - d_sq
    d_off = float(np.trace(s_mle)) ** 2 - d_sq
    disc = (eta - 1.0) ** 2 * q_hat + p * gamma**2 * t_hat**2 + 2.0 * gamma * (eta - 1.0) * t_hat**2
    optimism = (a * eta + d * gamma) * s_off + (b * eta + e * gamma) * d_off + c * (eta + gamma) * d_sq
    return disc + 2.0 * optimism


def select_k(x: np.ndarray, grid) -> int:
    """argmin of the closed-form SURE over ``grid``; ties go to the smaller k."""
    s_mle, s_unb = sample_covariances(x)
    return _argmin_k(s_mle, s_unb, x.shape[1], grid)


def _argmin_k(s_mle: np.ndarray, s_unb: np.ndarray, n: int, grid) -> int:
    grid = np.asarray(grid, dtype=np.int64)
    return int(grid[int(np.argmin(sure_curve(s_mle, s_unb, n, grid)))])


def cd_estimate(s: np.ndarray, k: int) -> np.ndarray:
    eta, gamma = cd_coeffs(s.shape[0], k)
    return float(eta) * s + float(gamma) * float(np.trace(s)) * np.eye(s.shape[0])


def _setting1_truth(cfg: dict, seed: int, rep: int) -> np.ndarray:
    p, ktr = cfg["p"], cfg["ktr"]
    rng = generator(seed, 0, rep, 0)
    lam = rng.standard_normal((p, ktr))
    n_zero = int(np.floor(cfg["s"] * p * ktr))
    if n_zero > 0:
        lam.ravel()[rng.choice(p * ktr, size=n_zero, replace=False)] = 0.0
    sigma0 = lam @ lam.T + 1.0 * np.eye(p)
    return 0.5 * (sigma0 + sigma0.T)


def _draw(sigma0: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    w, v = np.linalg.eigh(sigma0)
    top = max(float(w[-1]), 1.0)
    w = np.where(w < 1e-12 * top, 0.0, w)
    return (v * np.sqrt(w)[None, :]) @ rng.standard_normal((sigma0.shape[0], n))


def _errors(est: np.ndarray, sigma0: np.ndarray) -> tuple[float, float]:
    diff = est - sigma0
    p = sigma0.shape[0]
    op = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.T)))))
    return op / p, float(np.sqrt(np.sum(diff**2))) / p


def cell_records(cfg: dict, seed: int) -> dict[str, dict]:
    """Expected ``cd`` and ``sample`` rows of ``cdcov simulate`` (setting 1, stream 0).

    ``cfg`` holds n, p, ktr, s, replicates, grid_step and k_opt.
    """
    p, n = cfg["p"], cfg["n"]
    grid = default_k_grid(p, cfg["grid_step"])
    errs: dict[str, list] = {"cd": [], "sample": []}
    k_hats = []
    risk = np.zeros(grid.size)
    for rep in range(cfg["replicates"]):
        sigma0 = _setting1_truth(cfg, seed, rep)
        x = _draw(sigma0, n, generator(seed, 0, rep, 1))
        s_mle, s_unb = sample_covariances(x)
        k_hat = _argmin_k(s_mle, s_unb, n, grid)
        k_hats.append(k_hat)
        errs["cd"].append(_errors(cd_estimate(s_mle, k_hat), sigma0))
        errs["sample"].append(_errors(s_mle, sigma0))
        for i, k in enumerate(grid):
            risk[i] += float(np.sum((cd_estimate(s_mle, int(k)) - sigma0) ** 2))

    def se(a: np.ndarray) -> float:
        return float(np.std(a, ddof=1) / np.sqrt(a.size)) if a.size > 1 else 0.0

    uniq, counts = np.unique(np.asarray(k_hats), return_counts=True)
    out = {}
    for method, pairs in errs.items():
        arr = np.asarray(pairs)
        out[method] = {
            "replicates": cfg["replicates"],
            "op_err_mean": float(arr[:, 0].mean()),
            "op_err_se": se(arr[:, 0]),
            "fro_err_mean": float(arr[:, 1].mean()),
            "fro_err_se": se(arr[:, 1]),
            "k_hat_mode": int(uniq[np.argmax(counts)]) if method == "cd" else None,
            "k_opt": int(grid[int(np.argmin(risk))]) if method == "cd" and cfg["k_opt"] else None,
        }
    return out
