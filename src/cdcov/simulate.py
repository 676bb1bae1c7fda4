"""Synthetic factor-model benchmarks: data generation, replicates, metrics.

Two designs are covered. Setting 1 draws a sparse p x ktr loading matrix
(an exact floor(s * p * ktr)-sized uniform subset of entries zeroed, the
rest standard normal) and adds isotropic noise sigma0_sq * I. Setting 2
replaces the isotropic part with the covariance of a stationary AR(1)
sequence, which misspecifies the factor-plus-diagonal shape on purpose.

Every replicate redraws the loading matrix, the truth and the data from
per-replicate streams of one root seed, so a cell's output is a pure
function of its configuration and can be reproduced bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .baselines import AtConfig, PoetConfig, cross_validate_delta, hard_threshold_estimate, poet
from .errors import CdcovError, InvalidInputError
from .estimator import cd_estimate
from .matrices import CovPair, DataMatrix, RngSeed, SymMat, add_to_diagonal, center_columns
from .matrices import cov_pair, frob_norm, op_norm
from .sure import _grid_coeffs, cd_risk_curve, default_k_grid, select_k

__all__ = [
    "SimConfig",
    "BenchRecord",
    "make_sigma0",
    "draw_data",
    "fit",
    "run_cell",
    "sparsity_sweep",
    "METHODS",
]

log = logging.getLogger(__name__)

METHODS = ("cd", "at", "poet", "sample")

# A replicate's method seed is cfg.seed.child(rep, 2, stream) for these methods.
_METHOD_STREAMS = {"at": 0, "poet": 1}

# A method skipped on more than this fraction of a cell's replicates fails the cell.
_MAX_SKIP_FRACTION = 0.10

# Relative eigenvalue floor when factorizing a near-singular truth.
_FACTOR_CLAMP = 1e-12

# Relative eigenvalue below which a truth is rejected as indefinite.
_PSD_TOL = 1e-8


@dataclass(frozen=True)
class SimConfig:
    """Full description of one synthetic experiment cell."""

    setting: int
    n: int
    p: int
    ktr: int
    s: float
    replicates: int
    seed: RngSeed
    sigma0_sq: float = 1.0
    ar_error_var: float = 0.4
    ar_coef: float = 0.1
    ar_variance_mode: str = "innovation"  # or "marginal"

    def __post_init__(self) -> None:
        if self.setting not in (1, 2):
            raise InvalidInputError(f"setting must be 1 or 2, got {self.setting}")
        if self.n < 2:
            raise InvalidInputError(f"sample size must be >= 2, got n={self.n}")
        if self.p < 2:
            raise InvalidInputError(f"dimension must be >= 2, got p={self.p}")
        if not 1 <= self.ktr < self.p:
            raise InvalidInputError(f"true factor count must satisfy 1 <= ktr < p, got {self.ktr}")
        if not 0.0 < self.s < 1.0:
            raise InvalidInputError(f"sparsity fraction must lie in (0, 1), got s={self.s}")
        if self.replicates < 1:
            raise InvalidInputError(f"replicate count must be >= 1, got {self.replicates}")
        if self.sigma0_sq <= 0.0:
            raise InvalidInputError("sigma0_sq must be positive")
        if self.ar_error_var <= 0.0:
            raise InvalidInputError("ar_error_var must be positive")
        if not abs(self.ar_coef) < 1.0:
            raise InvalidInputError("|ar_coef| must be < 1")
        if self.ar_variance_mode not in ("innovation", "marginal"):
            raise InvalidInputError(f"unknown ar_variance_mode {self.ar_variance_mode!r}")


@dataclass(frozen=True)
class BenchRecord:
    """Aggregated errors of one method on one simulation cell."""

    method: str
    setting: int
    n: int
    p: int
    ktr: int
    s: float
    replicates: int
    op_err_mean: float
    op_err_se: float
    fro_err_mean: float
    fro_err_se: float
    k_hat_mode: int | None = None
    k_opt: int | None = None


def _loadings(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    lam = rng.standard_normal((cfg.p, cfg.ktr))
    n_zero = int(np.floor(cfg.s * cfg.p * cfg.ktr))
    if n_zero > 0:
        flat = rng.choice(cfg.p * cfg.ktr, size=n_zero, replace=False)
        lam.ravel()[flat] = 0.0
    return lam


def ar1_covariance(p: int, coef: float, error_var: float, mode: str = "innovation") -> SymMat:
    """Covariance of a stationary AR(1) sequence.

    ``mode="innovation"`` reads ``error_var`` as the innovation variance
    (marginal variance error_var / (1 - coef^2)); ``mode="marginal"`` reads
    it as the marginal variance directly.
    """
    if not abs(coef) < 1.0:
        raise InvalidInputError("|coef| must be < 1")
    marginal = error_var / (1.0 - coef**2) if mode == "innovation" else error_var
    idx = np.arange(p)
    return SymMat(marginal * coef ** np.abs(idx[:, None] - idx[None, :]))


def make_sigma0(cfg: SimConfig, rep: int = 0) -> SymMat:
    """Draw the truth for one replicate from the replicate's own stream."""
    rng = cfg.seed.generator(rep, 0)
    lam = _loadings(cfg, rng)
    sigma0 = lam @ lam.T
    if cfg.setting == 1:
        add_to_diagonal(sigma0, cfg.sigma0_sq)
    else:
        sigma0 += ar1_covariance(cfg.p, cfg.ar_coef, cfg.ar_error_var, cfg.ar_variance_mode).values
    return SymMat(sigma0)


def draw_data(sigma0: SymMat, n: int, seed: RngSeed | np.random.Generator) -> DataMatrix:
    """n i.i.d. N(0, Sigma0) columns via a symmetric eigen-factorization (see :func:`_eigen_root`)."""
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got n={n}")
    rng = seed.generator() if isinstance(seed, RngSeed) else seed
    return _draw_from_root(_eigen_root(sigma0), n, rng)


def _eigen_root(sigma0: SymMat) -> np.ndarray:
    """The root v sqrt(w) that draws sigma0's data; the package's one PSD check.

    Eigenvalues below _FACTOR_CLAMP * max(lambda_max, 1) enter the root as
    zero, so a numerically singular truth still factorizes. A negative top
    eigenvalue, or a bottom one below -_PSD_TOL * max(lambda_max, 1), is
    rejected as indefinite.
    """
    w, v = np.linalg.eigh(sigma0.values)
    top = float(w[-1])
    if top < 0.0 or float(w[0]) < -_PSD_TOL * max(top, 1.0):
        raise InvalidInputError("sigma0 must be positive semidefinite")
    clamp = _FACTOR_CLAMP * max(top, 1.0)
    return v * np.sqrt(np.where(w < clamp, 0.0, w))[None, :]


def _draw_from_root(root: np.ndarray, n: int, rng: np.random.Generator) -> DataMatrix:
    """n columns root @ z with z standard normal, drawn from ``rng``."""
    return DataMatrix(root @ rng.standard_normal((root.shape[0], n)))


def fit(
    method: str,
    pair: CovPair,
    *,
    seed: RngSeed | None,
    k_grid,
    k: int | None,
    at_config: AtConfig | None,
    poet_config: PoetConfig | None,
) -> tuple[SymMat, dict]:
    """Fit one of :data:`METHODS` to ``pair``; the package's one dispatch on a method name.

    Returns the estimate and what the fit chose: ``k`` for cd (plus
    ``sure_min`` when SURE picks k from ``k_grid``), ``delta`` for at,
    nothing for sample and poet. ``seed`` drives at's and poet's folds.
    """
    if method == "sample":
        return pair.mle, {}
    if method == "cd":
        if k is not None:
            return cd_estimate(pair.mle, k), {"k": k}
        curve = select_k(pair, k_grid)
        chosen = {"k": curve.k_hat, "sure_min": float(np.min(curve.sure_values))}
        return cd_estimate(pair.mle, curve.k_hat), chosen
    if method == "at":
        delta = cross_validate_delta(pair.x, at_config, seed)
        return hard_threshold_estimate(pair, delta), {"delta": delta}
    if method == "poet":
        return poet(pair, poet_config, seed), {}
    raise InvalidInputError(f"unknown method {method!r}; expected one of {METHODS}")


def _replicate(
    cfg: SimConfig,
    rep: int,
    methods: list[str],
    k_grid: np.ndarray,
    at_config: AtConfig,
    poet_config: PoetConfig | None,
    compute_k_opt: bool,
) -> dict:
    sigma0 = make_sigma0(cfg, rep)
    x = center_columns(draw_data(sigma0, cfg.n, cfg.seed.generator(rep, 1)))
    pair = cov_pair(x)
    out: dict = {"errors": {}, "k_hat": {}, "skips": {}}
    for method in methods:
        stream = _METHOD_STREAMS.get(method)
        seed = cfg.seed.child(rep, 2, stream) if stream is not None else None
        try:
            est, chosen = fit(
                method,
                pair,
                seed=seed,
                k_grid=k_grid,
                k=None,
                at_config=at_config,
                poet_config=poet_config,
            )
        except CdcovError as exc:
            log.warning("replicate %d: method %s skipped: %s", rep, method, exc)
            out["skips"][method] = str(exc)
            continue
        diff = SymMat(est.values - sigma0.values)
        out["errors"][method] = (op_norm(diff) / cfg.p, frob_norm(diff) / cfg.p)
        out["k_hat"][method] = chosen.get("k")
    if compute_k_opt:
        out["risk_curve"] = cd_risk_curve(pair.mle, sigma0, k_grid)
    return out


def _mode_smallest(values: list[int]) -> int:
    uniq, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    return int(uniq[np.argmax(counts)])  # argmax takes the first (smallest) on ties


def run_cell(
    cfg: SimConfig,
    methods,
    *,
    k_grid=None,
    at_config: AtConfig | None = None,
    poet_factors: int | None = None,
    compute_k_opt: bool = False,
    threads: int = 1,
) -> list[BenchRecord]:
    """Run one (setting, n, p, ktr, s) cell and aggregate per-method errors.

    Replicates execute on independent streams, so any thread count yields
    the same records. A method whose skip rate exceeds ``_MAX_SKIP_FRACTION``
    fails the whole cell. The k grid (with SURE's own grid check) and the
    POET configuration are built, and so checked, before the first
    replicate; a factor count the data cannot carry
    (>= min(n, p)) is a per-replicate skip.
    """
    methods = list(methods)
    if not methods:
        raise InvalidInputError("methods list must be nonempty")
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r}; expected one of {METHODS}")
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")

    grid = _grid_coeffs(k_grid, cfg.p)[0] if k_grid is not None else default_k_grid(cfg.p)
    at_cfg = at_config if at_config is not None else AtConfig()
    poet_cfg = None
    if "poet" in methods:
        factors = poet_factors if poet_factors is not None else cfg.ktr
        poet_cfg = PoetConfig(n_factors=factors, residual_threshold=at_cfg)

    def work(rep: int) -> dict:
        return _replicate(cfg, rep, methods, grid, at_cfg, poet_cfg, compute_k_opt)

    reps = range(cfg.replicates)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, reps))
    else:
        results = [work(rep) for rep in reps]

    k_opt: int | None = None
    if compute_k_opt:
        mean_curve = np.mean([r["risk_curve"] for r in results], axis=0)
        k_opt = int(grid[int(np.argmin(mean_curve))])

    records = []
    for method in methods:
        ops = [r["errors"][method][0] for r in results if method in r["errors"]]
        fros = [r["errors"][method][1] for r in results if method in r["errors"]]
        n_skip = cfg.replicates - len(ops)
        if n_skip > _MAX_SKIP_FRACTION * cfg.replicates:
            raise CdcovError(
                f"method {method}: {n_skip}/{cfg.replicates} replicates skipped; cell failed"
            )
        ops_a = np.asarray(ops)
        fros_a = np.asarray(fros)

        def se(a):
            return float(np.std(a, ddof=1) / np.sqrt(a.size)) if a.size > 1 else 0.0

        k_hats = [r["k_hat"][method] for r in results if r["k_hat"].get(method) is not None]
        records.append(
            BenchRecord(
                method=method,
                setting=cfg.setting,
                n=cfg.n,
                p=cfg.p,
                ktr=cfg.ktr,
                s=cfg.s,
                replicates=len(ops),
                op_err_mean=float(ops_a.mean()),
                op_err_se=se(ops_a),
                fro_err_mean=float(fros_a.mean()),
                fro_err_se=se(fros_a),
                k_hat_mode=_mode_smallest(k_hats) if k_hats else None,
                k_opt=k_opt if method == "cd" else None,
            )
        )
    return records


def sparsity_sweep(base: SimConfig, s_values, methods, **kwargs) -> list[BenchRecord]:
    """run_cell at each sparsity level, sharing the root seed across levels.

    Every cell's config is built before the first cell runs, so a bad
    sparsity value fails (in :class:`SimConfig`) before any work.
    """
    cells = [replace(base, s=float(s)) for s in s_values]
    if not cells:
        raise InvalidInputError("s_values must be nonempty")
    return [record for cfg in cells for record in run_cell(cfg, methods, **kwargs)]
