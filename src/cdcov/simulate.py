"""Synthetic factor-model benchmarks: data generation, replicates, metrics.

Two designs are covered. Setting 1 draws a sparse p x ktr loading matrix
(an exact floor(s * p * ktr)-sized uniform subset of entries zeroed, the
rest standard normal) and adds isotropic noise sigma0_sq * I. Setting 2
replaces it with a stationary AR(1) covariance (innovation variance
ar_error_var), misspecifying the factor-plus-diagonal shape on purpose.

Every replicate redraws the loading matrix, the truth and the data from
per-replicate streams of one root seed, so a cell's output is a pure
function of its configuration and can be reproduced bit for bit.

This is the package's one Monte-Carlo module over data draws. Besides
the cells it holds the known-truth risk oracle R(k) = E || est(k) -
Sigma0 ||_F^2 (``risk_oracle``), and both the oracle and a cell's k_opt
average ``sure.cd_risk_curve`` over their draws in one shared step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .baselines import AtConfig, PoetConfig, cross_validate_delta, hard_threshold_estimate, poet
from .errors import CdcovError, InvalidInputError
from .estimator import CdEstimate
from .matrices import CovPair, DataMatrix, RngSeed, SymMat, add_to_diagonal
from .matrices import _check_count, _check_real, cov_pair, frob_norm, op_norm
from .sure import _grid_coeffs, cd_risk_curve, default_k_grid, select_k

__all__ = [
    "SimConfig",
    "BenchRecord",
    "make_sigma0",
    "draw_data",
    "fit",
    "run_cell",
    "sparsity_sweep",
    "RiskCurve",
    "risk_oracle",
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

    def __post_init__(self) -> None:
        for name, minimum in (("setting", 1), ("n", 2), ("p", 2), ("ktr", 1), ("replicates", 1)):
            _check_count(name, getattr(self, name), minimum)
        for name, low, high in (("s", 0, 1), ("sigma0_sq", 0, np.inf), ("ar_error_var", 0, np.inf), ("ar_coef", -1, 1)):
            _check_real(name, getattr(self, name), low, high)
        if self.setting not in (1, 2):
            raise InvalidInputError(f"setting must be 1 or 2, got {self.setting}")
        if self.ktr >= self.p:
            raise InvalidInputError(f"true factor count must satisfy 1 <= ktr < p, got {self.ktr}")


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


def ar1_covariance(p: int, coef: float, error_var: float) -> SymMat:
    """Covariance of a stationary AR(1) sequence with |coef| < 1.

    ``error_var`` is the innovation variance, so the marginal variance is
    error_var / (1 - coef^2); a marginal variance v is the innovation
    variance v * (1 - coef^2). :class:`SimConfig` checks the values.
    """
    marginal = error_var / (1.0 - coef**2)
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
        sigma0 += ar1_covariance(cfg.p, cfg.ar_coef, cfg.ar_error_var).values
    return SymMat(sigma0)


def draw_data(sigma0: SymMat, n: int, seed: RngSeed | np.random.Generator) -> DataMatrix:
    """n i.i.d. N(0, Sigma0) columns via a symmetric eigen-factorization (see :func:`_eigen_root`)."""
    _check_count("n", n, 1)
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


@dataclass(frozen=True)
class RiskCurve:
    """Monte-Carlo Frobenius risk of the CD estimator over a k grid.

    ``k_grid`` is the checked grid from SURE's grid cache: read-only, and
    the same array for every call with that (p, grid). Copy it to change it.
    """

    k_grid: np.ndarray
    risk_values: np.ndarray
    replicates: int
    k_opt: int


def _mean_risk(grid: np.ndarray, curves: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """The mean of ``cd_risk_curve`` vectors and its argmin k_opt (ties go to the smaller k).

    A running sum in replicate order, then one division: ``np.mean(axis=0)``
    sums a one-point grid pairwise and can differ from it in the last bit.
    """
    total = np.zeros(grid.size)
    for curve in curves:
        total += curve
    risk = total / len(curves)
    return risk, int(grid[int(np.argmin(risk))])


def risk_oracle(
    sigma0: SymMat,
    n: int,
    k_grid,
    reps: int,
    seed: RngSeed,
    *,
    convention: str = "mle",
) -> RiskCurve:
    """Monte-Carlo R(k) = E || est(k) - Sigma0 ||_F^2 with known Sigma0.

    ``convention`` chooses which sample covariance feeds the CD map:
    ``"mle"`` (denominator n, the benchmark convention) or ``"unbiased"``
    (denominator n - 1, the convention SURE itself targets).
    """
    _check_count("replicate count", reps, 1)
    _check_count("n", n, 2)
    if convention not in ("mle", "unbiased"):
        raise InvalidInputError(f"unknown convention {convention!r}")
    root = _eigen_root(sigma0)  # one factorization serves every replicate
    grid = _grid_coeffs(k_grid, sigma0.dim).k

    curves = []
    for rep in range(reps):
        pair = cov_pair(_draw_from_root(root, n, seed.generator(rep)))
        sample = pair.mle if convention == "mle" else pair.unbiased
        curves.append(cd_risk_curve(sample, sigma0, grid))
    risk, k_opt = _mean_risk(grid, curves)
    return RiskCurve(k_grid=grid, risk_values=risk, replicates=reps, k_opt=k_opt)


def fit(
    method: str,
    pair: CovPair,
    *,
    seed: RngSeed | None,
    k_grid,
    k: int | None,
    at_config: AtConfig | None,
    poet_config: PoetConfig | None,
) -> tuple[SymMat | CdEstimate, dict]:
    """Fit one of :data:`METHODS` to ``pair``; the package's one dispatch on a method name.

    Returns the estimate and what the fit chose: ``k`` for cd (plus
    ``sure_min`` when SURE picks k from ``k_grid``), ``delta`` for at,
    nothing for sample and poet. ``seed`` drives at's and poet's folds.
    The cd estimate is a :class:`~cdcov.estimator.CdEstimate`, which holds
    the pair's centered data and no p x p matrix until its ``values`` are
    read; every other estimate is a :class:`SymMat`. Both have ``dim``,
    ``values`` and ``rows``. The fit never writes to ``pair``: SURE reuses
    the pair's S only when the pair already holds it. On constant data
    (S = 0) cd gives the zero estimate, ``sure_min`` 0 and the smallest
    grid k, since ties go to the smaller k.
    """
    if method == "sample":
        return pair.mle, {}
    if method == "cd":
        if k is not None:
            chosen = {"k": k}
        else:
            # at p <= n SURE reads S: the pair's, if it holds one, else that
            # of a fresh pair, which is gone when select_k returns
            curve = select_k(pair if "mle" in vars(pair) else CovPair(pair.x), k_grid)
            chosen = {"k": curve.k_hat, "sure_min": float(np.min(curve.sure_values))}
        return CdEstimate(pair.x, chosen["k"]), chosen
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
) -> tuple[dict, np.ndarray | None]:
    """(fits, risk curve): ``fits[method] = (op_err, fro_err, k_hat)`` for each method not skipped."""
    sigma0 = make_sigma0(cfg, rep)
    pair = cov_pair(draw_data(sigma0, cfg.n, cfg.seed.generator(rep, 1)))
    if compute_k_opt or set(methods) - {"cd"}:
        # the other methods and the k_opt curve read S: build it once, here,
        # so that SURE at p <= n reuses it and the cd fit keeps it
        pair.mle
    fits = {}
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
            continue
        diff = SymMat(est.values - sigma0.values)
        fits[method] = (op_norm(diff) / cfg.p, frob_norm(diff) / cfg.p, chosen.get("k"))
    risk_curve = cd_risk_curve(pair.mle, sigma0, k_grid) if compute_k_opt else None
    return fits, risk_curve


def _se(a: np.ndarray) -> float:
    """Standard error of the mean; 0 for one value."""
    return float(np.std(a, ddof=1) / np.sqrt(a.size)) if a.size > 1 else 0.0


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
    if not methods or len(set(methods)) < len(methods):
        raise InvalidInputError(f"methods list must be nonempty and distinct, got {methods}")
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r}; expected one of {METHODS}")
    _check_count("threads", threads, 1)

    grid = _grid_coeffs(k_grid, cfg.p).k if k_grid is not None else default_k_grid(cfg.p)
    at_cfg = at_config if at_config is not None else AtConfig()
    poet_cfg = None
    if "poet" in methods:
        factors = poet_factors if poet_factors is not None else cfg.ktr
        poet_cfg = PoetConfig(n_factors=factors, residual_threshold=at_cfg)

    def work(rep: int):
        return _replicate(cfg, rep, methods, grid, at_cfg, poet_cfg, compute_k_opt)

    reps = range(cfg.replicates)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, reps))
    else:
        results = [work(rep) for rep in reps]

    k_opt = _mean_risk(grid, [curve for _, curve in results])[1] if compute_k_opt else None
    records = []
    for method in methods:
        fits = [f[method] for f, _ in results if method in f]
        n_skip = cfg.replicates - len(fits)
        if n_skip > _MAX_SKIP_FRACTION * cfg.replicates:
            raise CdcovError(
                f"method {method}: {n_skip}/{cfg.replicates} replicates skipped; cell failed"
            )
        ops = np.asarray([op for op, _, _ in fits])
        fros = np.asarray([fro for _, fro, _ in fits])
        k_hats = [k for _, _, k in fits if k is not None]
        records.append(
            BenchRecord(
                method=method,
                setting=cfg.setting,
                n=cfg.n,
                p=cfg.p,
                ktr=cfg.ktr,
                s=cfg.s,
                replicates=len(fits),
                op_err_mean=float(ops.mean()),
                op_err_se=_se(ops),
                fro_err_mean=float(fros.mean()),
                fro_err_se=_se(fros),
                k_hat_mode=_mode_smallest(k_hats) if k_hats else None,
                k_opt=k_opt if method == "cd" else None,
            )
        )
    return records


def sparsity_sweep(base: SimConfig, s_values, methods, **kwargs) -> list[BenchRecord]:
    """run_cell at each sparsity level, sharing the root seed across levels.

    Every cell's config is built before the first cell runs, so a bad
    sparsity value (in :class:`SimConfig`) or a repeated one fails before any work.
    """
    cells = [replace(base, s=s) for s in s_values]
    if not cells or len({cfg.s for cfg in cells}) < len(cells):
        raise InvalidInputError(f"s_values must be nonempty and distinct, got {[cfg.s for cfg in cells]}")
    return [record for cfg in cells for record in run_cell(cfg, methods, **kwargs)]
