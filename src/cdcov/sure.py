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
of five scalars of the sample covariance (see its docstring), so one
O(p^2) pass reads them and each grid point then costs O(1); the same
pass gives the k-free offset estimate, the optimism term at k = p. The
entrywise sum over the p x p grid that the formulas above describe is
kept in the test suite as the oracle that ``select_k`` is checked
against.

``cd_risk_curve`` is the loss SURE estimates, || est(k) - Sigma0 ||_F^2
against a known truth, over the same grid at O(1) per k. The Monte-Carlo
averages of it, the oracle risk R(k) and a cell's k_opt, live in
``simulate`` beside the draws they average over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .estimator import cd_coeff_grid
from .matrices import CovPair, SymMat

__all__ = [
    "MomentCoeffs",
    "unbiased_moment_coeffs",
    "select_k",
    "SureCurve",
    "default_k_grid",
]


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
    """

    p: int
    n: int
    k_grid: np.ndarray
    sure_values: np.ndarray
    k_hat: int
    discrepancy: np.ndarray
    optimism: np.ndarray
    offset_estimate: float


def default_k_grid(p: int, step: int = 10, lo: int | None = None, hi: int | None = None) -> np.ndarray:
    """Grid lo, lo+step, ..., hi, always including hi (lo = min(step, p), hi = p if unset)."""
    if p < 2:
        raise InvalidInputError("grid needs p >= 2")
    if step < 1:
        raise InvalidInputError(f"grid_step must be >= 1, got {step}")
    lo = min(step, p) if lo is None else lo
    hi = p if hi is None else hi
    if not 1 <= lo <= hi <= p:
        raise InvalidInputError(f"grid [{lo}, {hi}] must satisfy 1 <= lo <= hi <= p={p}")
    grid = list(range(lo, hi + 1, step))
    if grid[-1] != hi:
        grid.append(hi)
    return np.asarray(grid, dtype=np.int64)


def _grid_coeffs(k_grid, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, eta, gamma) for a nonempty, strictly increasing grid of integers in [1, p]."""
    # checks each k is an integer in [1, p] before the int64 cast, which would truncate 2.5
    eta, gamma = cd_coeff_grid(p, k_grid)
    grid = np.asarray(k_grid, dtype=np.int64)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("k grid must be a nonempty 1-d integer list")
    if np.any(grid[1:] <= grid[:-1]):
        raise InvalidInputError("k grid must be strictly increasing")
    return grid, eta, gamma


def _covariance_stats(cov: CovPair) -> tuple[float, float, float]:
    """(Q_til, D_sq, T_til) of the MLE covariance, with no p x p temporary."""
    t = cov.mle.values
    d = np.diagonal(t)
    return float(np.vdot(t, t)), float(np.vdot(d, d)), float(np.sum(d))


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
    optimism at eta = 1, gamma = 0 (k = p), whatever the grid.
    """
    p = cov.mle.dim
    if cov.n < 3:
        raise InvalidInputError(f"SURE needs n >= 3, got n={cov.n}")
    grid, eta, gamma = _grid_coeffs(k_grid, p)
    c = coeffs if coeffs is not None else unbiased_moment_coeffs(cov.n)
    q_til, d_sq, t_til = _covariance_stats(cov)
    r = cov.n / (cov.n - 1)
    q_hat = r * r * q_til
    t_hat_sq = (r * t_til) ** 2
    disc = (eta - 1.0) ** 2 * q_hat + p * gamma**2 * t_hat_sq + 2.0 * gamma * (eta - 1.0) * t_hat_sq
    optimism = (
        (c.a_n * eta + c.d_n * gamma) * (q_til - d_sq)
        + (c.b_n * eta + c.e_n * gamma) * (t_til**2 - d_sq)
        + c.c_n * (eta + gamma) * d_sq
    )
    values = disc + 2.0 * optimism
    return SureCurve(
        p=p,
        n=cov.n,
        k_grid=grid,
        sure_values=values,
        k_hat=int(grid[int(np.argmin(values))]),
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
    _, eta, gamma = _grid_coeffs(k_grid, p)
    s = sample.values
    s0 = sigma0.values
    s_sq = float(np.vdot(s, s))
    s_s0 = float(np.vdot(s, s0))
    s0_sq = float(np.vdot(s0, s0))
    tr_s = float(np.trace(s))
    tr_s0 = float(np.trace(s0))
    gt = gamma * tr_s
    return (
        eta**2 * s_sq
        - 2.0 * eta * s_s0
        + s0_sq
        + 2.0 * gt * (eta * tr_s - tr_s0)
        + p * gt**2
    )

