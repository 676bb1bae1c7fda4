"""Unbiased risk estimation and selection of the compressed dimension.

For each candidate k the Frobenius risk of the CD estimator is estimated
from data alone as

    SURE(k) = || est(k) - S_hat ||_F^2 + 2 * optimism_hat(k),

where S_hat is the unbiased (n - 1) sample covariance, est(k) is the CD
estimate built from S_hat (one declared convention throughout, so the
discrepancy term vanishes exactly at k = p), and optimism_hat plugs
unbiased estimators of the second moments of S_hat's entries into

    optimism(k) = sum_ij cov(est_ij(k), s_hat_ij)
                = eta * sum_{i != j} var(s_hat_ij)
                  + sum_i [ (eta + gamma) var(s_hat_ii)
                            + gamma * sum_{l != i} cov(s_hat_ll, s_hat_ii) ].

E[SURE(k)] then differs from the true risk by sum_ij var(s_hat_ij), which
does not depend on k, so the argmin is unbiasedly identified.

Two moment-coefficient sets fit the ``coeffs`` parameter.
``unbiased_moment_coeffs`` is derived from exact Wishart moments for
column-centered Gaussian data (degrees of freedom n - 1) and is the
default: with it the k-free-offset property above holds exactly. The
classic rational closed-form set, which carries an O(1/n) relative bias,
is kept in the test suite as a reference.

``select_k`` is the one SURE evaluator. Every SURE term is a combination
of five scalars of the sample covariance (see its docstring). They are
read from the smaller Gram matrix: S itself when p <= n, and when p > n
the n x n X^T X / n with the row sums of squares of X for S's diagonal.
That is O(p n min(p, n)) time and O(p n + min(p, n)^2) memory, and S is
never formed when p > n. Each grid point then costs O(1); the same
statistics give the k-free offset estimate, the optimism term at k = p.
The entrywise sum over the p x p grid that the formulas above describe
is kept in the test suite as the oracle that ``select_k`` is checked
against.

``cd_risk_curve`` is the loss SURE estimates, || est(k) - Sigma0 ||_F^2
against a known truth, over the same grid at O(1) per k. The Monte-Carlo
averages of it, the oracle risk R(k) and a cell's k_opt, live in
``simulate`` beside the draws they average over.

Both read a k grid through one bounded cache: it is checked and expanded
once per distinct (p, grid), into read-only arrays of eta, gamma and the
products of them that the closed forms multiply by data scalars. Each
call then does a few vector operations, in the order the closed forms
are written, so a cached and a fresh expansion give the same bits. This
pays where one process calls again with the same grid, as every
replicate of ``simulate.run_cell`` and ``simulate.risk_oracle`` does; a
single call pays a few microseconds more than an uncached expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .estimator import _k_array, cd_coeff_grid
from .matrices import CovPair, SymMat, _check_count, _row_sq

__all__ = [
    "MomentCoeffs",
    "unbiased_moment_coeffs",
    "select_k",
    "SureCurve",
    "default_k_grid",
]

GRID_STEP = 10  # the default k-grid step


@dataclass(frozen=True)
class MomentCoeffs:
    """Coefficients of the quadratic moment estimators at sample size n.

    var_hat(s_hat_ij)       = a_n * t_ij^2 + b_n * t_ii t_jj   (i != j)
    var_hat(s_hat_ii)       = c_n * t_ii^2
    cov_hat(s_hat_ll, s_hat_ii) = d_n * t_il^2 + e_n * t_ii t_ll (l != i)

    with t the maximum-likelihood (denominator n) covariance entries.
    """

    n: int
    a_n: float
    b_n: float
    c_n: float
    d_n: float
    e_n: float


def _check_n(n: int) -> int:
    n = int(n)
    if n < 3:
        raise InvalidInputError(f"moment coefficients need n >= 3, got n={n}")
    return n


@lru_cache
def unbiased_moment_coeffs(n: int) -> MomentCoeffs:
    """Exactly unbiased coefficient set for centered Gaussian data.

    Derived from Wishart(n - 1) product moments of the MLE entries
    t_ij = w_ij / n:

        E[t_ij^2]      = ((n-1)/n) s_ij^2 + ((n-1)/n^2) s_ii s_jj
        E[t_ii t_jj]   = ((n-1)^2/n^2) s_ii s_jj + (2(n-1)/n^2) s_ij^2

    inverted for unbiased estimators of s_ij^2 and s_ii s_jj and combined
    with var(s_hat_ij) = (s_ij^2 + s_ii s_jj)/(n-1),
    var(s_hat_ii) = 2 s_ii^2/(n-1) and cov(s_hat_ll, s_hat_ii) =
    2 s_il^2/(n-1). Note e_n < 0: the product term over-counts and must be
    subtracted for the diagonal covariance.
    """
    n = _check_n(n)
    m1 = n - 1
    m2 = n - 2
    p1 = n + 1
    return MomentCoeffs(
        n=n,
        a_n=n**2 * (n - 3) / (m1**2 * m2 * p1),
        b_n=n**2 / (m1 * m2 * p1),
        c_n=2 * n**2 / (m1**2 * p1),
        d_n=2 * n**2 / (m1 * m2 * p1),
        e_n=-2 * n**2 / (m1**2 * m2 * p1),
    )


@dataclass(frozen=True)
class SureCurve:
    """SURE values over a k grid, the selected k, the two terms of each value, and the offset.

    ``offset_estimate`` estimates sum_ij var(s_hat_ij), the k-free gap
    E[SURE] - risk; it cancels in the argmin and is a diagnostic only.
    ``k_grid`` is the checked grid from the grid cache: read-only, and the
    same array for every call with that (p, grid). Copy it to change it.
    """

    p: int
    n: int
    k_grid: np.ndarray
    sure_values: np.ndarray
    k_hat: int
    discrepancy: np.ndarray
    optimism: np.ndarray
    offset_estimate: float


def default_k_grid(p: int, step: int = GRID_STEP) -> np.ndarray:
    """Grid min(step, p), min(step, p) + step, ..., p, always including p.

    Each k's SURE and risk values do not depend on the other ks on a grid, so
    a narrower range is a slice of this one; callers that want one pass an
    explicit grid.
    """
    _check_count("p", p)
    _check_count("grid_step", step)
    if p < 2:
        raise InvalidInputError("grid needs p >= 2")
    if step < 1:
        raise InvalidInputError(f"grid_step must be >= 1, got {step}")
    grid = list(range(min(step, p), p + 1, step))
    if grid[-1] != p:
        grid.append(p)
    return np.asarray(grid, dtype=np.int64)


# Distinct (p, k grid) expansions kept; a g-point grid holds 8 g numbers.
_GRID_CACHE = 32


@dataclass(frozen=True, eq=False)
class _Grid:
    """A checked k grid at one p, its CD coefficients, and the k-only factors of the closed forms; all read-only."""

    k: np.ndarray
    eta: np.ndarray
    gamma: np.ndarray
    eta_m1_sq: np.ndarray  # (eta - 1)**2
    p_gamma_sq: np.ndarray  # p * gamma**2
    cross: np.ndarray  # 2 gamma (eta - 1)
    eta_sq: np.ndarray  # eta**2
    two_eta: np.ndarray  # 2 eta


@lru_cache(maxsize=_GRID_CACHE)
def _cached_grid(p: int, dtype: str, shape: tuple[int, ...], data: bytes) -> _Grid:
    """Check a grid (nonempty, strictly increasing integers in [1, p]) and expand it."""
    raw = np.frombuffer(data, dtype=dtype).reshape(shape)
    # checks each k is an integer in [1, p] before the int64 cast, which would truncate 2.5
    eta, gamma = cd_coeff_grid(p, raw)
    grid = raw.astype(np.int64)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("k grid must be a nonempty 1-d integer list")
    if (grid[1:] <= grid[:-1]).any():
        raise InvalidInputError("k grid must be strictly increasing")
    eta_m1 = eta - 1.0
    arrays = (grid, eta, gamma, eta_m1**2, p * gamma**2, 2.0 * gamma * eta_m1, eta**2, 2.0 * eta)
    for a in arrays:
        a.flags.writeable = False
    return _Grid(*arrays)


def _grid_coeffs(k_grid, p: int) -> _Grid:
    """The checked, expanded grid, from a cache keyed by p and the grid's dtype, shape and bytes.

    The key is the grid's content, so a grid array changed in place is
    expanded anew; a bad grid raises on every call. A grid that is not
    bool, integer or float (an object array's bytes are pointers) goes
    straight to ``cd_coeff_grid``, which rejects it.
    """
    raw = _k_array(k_grid)
    if raw.dtype.kind not in "biuf":
        cd_coeff_grid(p, raw)  # raises
    return _cached_grid(int(p), raw.dtype.str, raw.shape, raw.tobytes())


def _covariance_stats(cov: CovPair) -> tuple[float, float, float]:
    """(Q_til, D_sq, T_til) of the MLE covariance t = X X^T / n, read from the smaller Gram matrix.

    X X^T and X^T X have the same nonzero eigenvalues, so Q_til = ||t||_F^2
    is ||X^T X / n||_F^2 when p > n, and t itself is never formed: its
    diagonal is then the row sums of squares of X over n.
    """
    x = cov.x
    if x.p <= x.n:
        g = cov.mle.values
        d = g.diagonal()
    else:
        g = x.values.T @ x.values / x.n
        d = _row_sq(x) / x.n
    return float(np.vdot(g, g)), float(np.vdot(d, d)), float(d.sum())


def select_k(cov: CovPair, k_grid, coeffs: MomentCoeffs | None = None) -> SureCurve:
    """SURE, its discrepancy and optimism terms at every k on the grid, and k_hat = argmin SURE.

    With t the MLE covariance, Q_til = sum_ij t_ij^2, D_sq = sum_i t_ii^2
    and T_til = Tr(t); S_hat = r t with r = n / (n - 1) gives
    Q_hat = r^2 Q_til and T_hat = r T_til, and the off-diagonal sums are
    S_off = Q_til - D_sq and D_off = T_til^2 - D_sq. Then

        discrepancy = (eta-1)^2 Q_hat + p gamma^2 T_hat^2 + 2 gamma (eta-1) T_hat^2
        optimism    = (a eta + d gamma) S_off + (b eta + e gamma) D_off
                      + c (eta + gamma) D_sq

    and SURE(k) = discrepancy + 2 * optimism, all as vectors over the grid.
    Ties in the argmin go to the smaller k. The offset estimate is the
    optimism at eta = 1, gamma = 0 (k = p), whatever the grid. Caller
    ``coeffs`` must be a set for the pair's own n.
    """
    p, n = cov.x.p, cov.n
    if n < 3:
        raise InvalidInputError(f"SURE needs n >= 3, got n={n}")
    g = _grid_coeffs(k_grid, p)
    c = coeffs if coeffs is not None else unbiased_moment_coeffs(n)
    if c.n != n:
        raise InvalidInputError(f"moment coefficients are for n={c.n}, the sample has n={n}")
    q_til, d_sq, t_til = _covariance_stats(cov)
    r = n / (n - 1)
    q_hat = r * r * q_til
    t_hat_sq = (r * t_til) ** 2
    disc = g.eta_m1_sq * q_hat + g.p_gamma_sq * t_hat_sq + g.cross * t_hat_sq
    optimism = (
        (c.a_n * g.eta + c.d_n * g.gamma) * (q_til - d_sq)
        + (c.b_n * g.eta + c.e_n * g.gamma) * (t_til**2 - d_sq)
        + c.c_n * (g.eta + g.gamma) * d_sq
    )
    values = disc + 2.0 * optimism
    return SureCurve(
        p=p,
        n=n,
        k_grid=g.k,
        sure_values=values,
        k_hat=int(g.k[values.argmin()]),
        discrepancy=disc,
        optimism=optimism,
        offset_estimate=c.a_n * (q_til - d_sq) + c.b_n * (t_til**2 - d_sq) + c.c_n * d_sq,
    )


def cd_risk_curve(sample: SymMat, sigma0: SymMat, k_grid: np.ndarray) -> np.ndarray:
    """|| eta S + gamma Tr(S) I - Sigma0 ||_F^2 for every k on the grid.

    Exact quadratic expansion in the inner products of S and Sigma0, read
    with no p x p temporary, so the per-k cost is O(1) after one O(p^2) pass.
    """
    p = sample.dim
    g = _grid_coeffs(k_grid, p)
    s = sample.values
    s0 = sigma0.values
    s_sq = float(np.vdot(s, s))
    s_s0 = float(np.vdot(s, s0))
    s0_sq = float(np.vdot(s0, s0))
    tr_s = float(s.trace())
    tr_s0 = float(s0.trace())
    gt = g.gamma * tr_s
    return g.eta_sq * s_sq - g.two_eta * s_s0 + s0_sq + 2.0 * gt * (g.eta * tr_s - tr_s0) + p * gt**2

