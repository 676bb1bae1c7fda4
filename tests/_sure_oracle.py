"""Entrywise SURE oracle: the risk estimate as an explicit sum over entries.

It costs O(p^2) per k and shares only the coefficient definitions with
the package's five-statistic evaluator (``cdcov.sure.select_k``), so
agreement between the two checks the trace identities behind it.
``closed_form_curve`` and ``closed_form_risk`` restate the package's
closed forms in their original operation order, with every k-only factor
computed per call, so the package's cached grid factors are pinned to
them bit for bit. The three entrywise moment estimators it sums are defined here too; the
package needs only their sums. So is the classic closed-form coefficient
set, which the package never uses but the path-equivalence checks run
with as a second, biased set.
"""

from __future__ import annotations

import numpy as np

from cdcov import CovPair, InvalidInputError, MomentCoeffs, unbiased_moment_coeffs
from cdcov.estimator import cd_coeff_grid
from cdcov.sure import _check_n, _covariance_stats


def moment_coeffs(n: int) -> MomentCoeffs:
    """Classic rational closed-form coefficient set.

    Its denominators n^3 + n^2 - 2n - 4 appear in the closed-form risk
    display; biased at O(1/n) relative to ``unbiased_moment_coeffs``.
    """
    n = _check_n(n)
    d0 = n**3 + n**2 - 2 * n - 4
    return MomentCoeffs(
        n=n,
        a_n=n**2 * (n**2 - n - 4) / ((n - 1) ** 2 * d0),
        b_n=n**3 / ((n - 1) * d0),
        c_n=n**2 * (2 * n**2 - 2 * n - 4) / ((n - 1) ** 2 * d0),
        d_n=2 * n**2 * (n + 2) / ((n - 1) * d0),
        e_n=2 * (n - 2) * n**2 / ((n - 1) * d0),
    )


def _check_nonneg(name: str, value) -> None:
    if np.any(np.asarray(value) < 0):
        raise InvalidInputError(f"{name} must be nonnegative")


def var_hat_off(sigma_tilde_ij, sigma_tilde_ii, sigma_tilde_jj, c: MomentCoeffs):
    """Estimate of var(s_hat_ij) for an off-diagonal entry (i != j)."""
    _check_nonneg("sigma_tilde_ii", sigma_tilde_ii)
    _check_nonneg("sigma_tilde_jj", sigma_tilde_jj)
    return c.a_n * np.square(sigma_tilde_ij) + c.b_n * np.multiply(sigma_tilde_ii, sigma_tilde_jj)


def var_hat_diag(sigma_tilde_ii, c: MomentCoeffs):
    """Estimate of var(s_hat_ii) for a diagonal entry."""
    _check_nonneg("sigma_tilde_ii", sigma_tilde_ii)
    return c.c_n * np.square(sigma_tilde_ii)


def cov_hat_diag_pair(sigma_tilde_il, sigma_tilde_ii, sigma_tilde_ll, c: MomentCoeffs):
    """Estimate of cov(s_hat_ll, s_hat_ii) for distinct diagonal entries."""
    _check_nonneg("sigma_tilde_ii", sigma_tilde_ii)
    _check_nonneg("sigma_tilde_ll", sigma_tilde_ll)
    return c.d_n * np.square(sigma_tilde_il) + c.e_n * np.multiply(sigma_tilde_ii, sigma_tilde_ll)


def sure_direct_parts(cov: CovPair, k: int, c: MomentCoeffs) -> tuple[float, float]:
    """(discrepancy, optimism_hat) by explicit summation over the entry grid."""
    p = cov.mle.dim
    eta, gamma = cd_coeff_grid(p, k)
    s_hat = cov.unbiased.values
    s_til = cov.mle.values
    off = ~np.eye(p, dtype=bool)

    t_hat = float(np.trace(s_hat))
    disc_entries = (eta - 1.0) * s_hat + (gamma * t_hat) * np.eye(p)
    disc = float(np.sum(disc_entries**2))

    d_til = np.diag(s_til)
    voff = var_hat_off(s_til, d_til[:, None], d_til[None, :], c)
    vdiag = var_hat_diag(d_til, c)
    cpair = cov_hat_diag_pair(s_til, d_til[:, None], d_til[None, :], c)
    optimism = (
        eta * float(np.sum(voff[off]))
        + (eta + gamma) * float(np.sum(vdiag))
        + gamma * float(np.sum(cpair[off]))
    )
    return disc, optimism


def sure_direct(cov: CovPair, k: int, coeffs: MomentCoeffs | None = None) -> float:
    """SURE(k) = discrepancy + 2 * optimism_hat as the entrywise sum."""
    c = coeffs if coeffs is not None else unbiased_moment_coeffs(cov.n)
    disc, optimism = sure_direct_parts(cov, k, c)
    return disc + 2.0 * optimism


def closed_form_curve(cov: CovPair, k_grid, coeffs: MomentCoeffs | None = None) -> dict:
    """``select_k``'s outputs from its closed forms, every k-only factor formed on the call."""
    p = cov.x.p
    eta, gamma = cd_coeff_grid(p, k_grid)
    grid = np.asarray(k_grid, dtype=np.int64)
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
    return {
        "k_grid": grid,
        "sure_values": values,
        "k_hat": int(grid[int(np.argmin(values))]),
        "discrepancy": disc,
        "optimism": optimism,
        "offset_estimate": c.a_n * (q_til - d_sq) + c.b_n * (t_til**2 - d_sq) + c.c_n * d_sq,
    }


def closed_form_risk(sample, sigma0, k_grid) -> np.ndarray:
    """``cd_risk_curve`` from its closed form, every k-only factor formed on the call."""
    p = sample.dim
    eta, gamma = cd_coeff_grid(p, k_grid)
    s = sample.values
    s0 = sigma0.values
    s_sq = float(np.vdot(s, s))
    s_s0 = float(np.vdot(s, s0))
    s0_sq = float(np.vdot(s0, s0))
    tr_s = float(np.trace(s))
    tr_s0 = float(np.trace(s0))
    gt = gamma * tr_s
    return eta**2 * s_sq - 2.0 * eta * s_s0 + s0_sq + 2.0 * gt * (eta * tr_s - tr_s0) + p * gt**2
