"""Entrywise SURE oracle: the risk estimate as an explicit sum over entries.

It costs O(p^2) per k and shares only the coefficient definitions with
the package's five-statistic evaluator (``cdcov.sure.sure_curve``), so
agreement between the two checks the trace identities behind it.
"""

from __future__ import annotations

import numpy as np

from cdcov import (
    CovPair,
    MomentCoeffs,
    cd_coeffs,
    cov_hat_diag_pair,
    unbiased_moment_coeffs,
    var_hat_diag,
    var_hat_off,
)


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
