"""Entrywise SURE oracle: the risk estimate as an explicit sum over entries.

It costs O(p^2) per k and shares only the coefficient definitions with
the package's five-statistic evaluator (``cdcov.sure.sure_curve``), so
agreement between the two checks the trace identities behind it. The
three entrywise moment estimators it sums are defined here too; the
package needs only their sums.
"""

from __future__ import annotations

import numpy as np

from cdcov import CovPair, InvalidInputError, MomentCoeffs, cd_coeffs, unbiased_moment_coeffs


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
    cc = cd_coeffs(p, k)
    s_hat = cov.unbiased.values
    s_til = cov.mle.values
    off = ~np.eye(p, dtype=bool)

    t_hat = float(np.trace(s_hat))
    disc_entries = (cc.eta - 1.0) * s_hat + (cc.gamma * t_hat) * np.eye(p)
    disc = float(np.sum(disc_entries**2))

    d_til = np.diag(s_til)
    voff = var_hat_off(s_til, d_til[:, None], d_til[None, :], c)
    vdiag = var_hat_diag(d_til, c)
    cpair = cov_hat_diag_pair(s_til, d_til[:, None], d_til[None, :], c)
    optimism = (
        cc.eta * float(np.sum(voff[off]))
        + (cc.eta + cc.gamma) * float(np.sum(vdiag))
        + cc.gamma * float(np.sum(cpair[off]))
    )
    return disc, optimism


def sure_direct(cov: CovPair, k: int, coeffs: MomentCoeffs | None = None) -> float:
    """SURE(k) = discrepancy + 2 * optimism_hat as the entrywise sum."""
    c = coeffs if coeffs is not None else unbiased_moment_coeffs(cov.n)
    disc, optimism = sure_direct_parts(cov, k, c)
    return disc + 2.0 * optimism
