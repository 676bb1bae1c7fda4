"""Entrywise SURE oracle: the risk estimate as an explicit sum over entries.

It costs O(p^2) per k and shares only the coefficient definitions with
the package's five-statistic evaluator (``cdcov.sure.select_k``), so
agreement between the two checks the trace identities behind it. The
three entrywise moment estimators it sums are defined here too; the
package needs only their sums. So is the classic closed-form coefficient
set, which the package never uses but the path-equivalence checks run
with as a second, biased set.
"""

from __future__ import annotations

import numpy as np

from cdcov import CovPair, InvalidInputError, MomentCoeffs, unbiased_moment_coeffs
from cdcov.estimator import cd_coeff_grid
from cdcov.sure import _check_n


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
