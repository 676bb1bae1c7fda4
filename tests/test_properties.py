"""Property tests of the invariances the estimator owes its input.

Scaling the data by a power of two scales every floating-point step of
the SURE pipeline exactly, so the SURE values scale by exactly 2^(4j) and
k_hat does not move. Permuting the variables only reorders sums, so SURE
agrees to rounding and the CD map commutes with the permutation. SURE is
computed entry by entry over the grid, so each grid entry is exactly the
value of a one-k evaluation. With the default coefficients, E[SURE(k)]
minus the true risk R(k) is the same for every k; both expectations are
exact here, from Wishart moments, with no Monte Carlo.

Examples are derandomized: the suite draws the same cases on every run.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcov import (
    DataMatrix,
    SymMat,
    cd_estimate,
    cov_pair,
    select_k,
)
from cdcov import sure
from cdcov.estimator import cd_coeff_grid
from _sure_oracle import moment_coeffs

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def data(draw):
    """A p x n standard normal data matrix, 2 <= p <= 24 and 3 <= n <= 24."""
    p = draw(st.integers(2, 24))
    n = draw(st.integers(3, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal((p, n))


def curve(x):
    pair = cov_pair(DataMatrix.from_array(x))
    return select_k(pair, np.arange(1, x.shape[0] + 1))


@PROPERTY
@given(x=data(), j=st.integers(-20, 20))
def test_power_of_two_scaling_scales_sure_exactly(x, j):
    base = curve(x)
    scaled = curve(x * 2.0**j)
    assert scaled.k_hat == base.k_hat
    np.testing.assert_array_equal(scaled.sure_values, base.sure_values * 2.0 ** (4 * j))


@PROPERTY
@given(x=data(), perm_seed=st.integers(0, 2**32 - 1))
def test_permuting_variables_keeps_sure_and_k_hat(x, perm_seed):
    perm = np.random.default_rng(perm_seed).permutation(x.shape[0])
    base = curve(x)
    permuted = curve(x[perm])
    assert permuted.k_hat == base.k_hat
    np.testing.assert_allclose(permuted.sure_values, base.sure_values, rtol=1e-12, atol=0)


@PROPERTY
@given(x=data(), perm_seed=st.integers(0, 2**32 - 1), k_frac=st.floats(0.0, 1.0))
def test_cd_estimate_commutes_with_permutation(x, perm_seed, k_frac):
    p = x.shape[0]
    perm = np.random.default_rng(perm_seed).permutation(p)
    k = 1 + int(k_frac * (p - 1))
    s = cov_pair(DataMatrix.from_array(x)).mle
    moved = cd_estimate(SymMat(s.values[np.ix_(perm, perm)]), k).values
    np.testing.assert_allclose(moved, cd_estimate(s, k).values[np.ix_(perm, perm)], rtol=1e-13, atol=0)


@PROPERTY
@given(x=data(), picks=st.sets(st.integers(0, 23), min_size=1), classic=st.booleans())
def test_grid_entries_equal_one_k_evaluations(x, picks, classic):
    pair = cov_pair(DataMatrix.from_array(x))
    p = x.shape[0]
    grid = sorted({1 + i % p for i in picks})
    coeffs = moment_coeffs(pair.n) if classic else None
    full = select_k(pair, grid, coeffs)
    for i, k in enumerate(grid):
        one = select_k(pair, [k], coeffs)
        assert one.sure_values[0] == full.sure_values[i]
        assert one.discrepancy[0] == full.discrepancy[i]
        assert one.optimism[0] == full.optimism[i]
        assert one.offset_estimate == full.offset_estimate
    assert full.offset_estimate == select_k(pair, np.arange(1, p + 1), coeffs).optimism[-1]


def wishart_moments(sigma0, n):
    """E[Q_til], E[D_sq] and E[T_til^2] of t = W / n, W ~ Wishart(n - 1, sigma0).

    Sums over the entries of the moments in ``unbiased_moment_coeffs``'s
    docstring: E[t_ij^2] = ((n-1)/n) s_ij^2 + ((n-1)/n^2) s_ii s_jj and
    E[t_ii t_ll] = ((n-1)^2/n^2) s_ii s_ll + (2(n-1)/n^2) s_il^2.
    """
    m = n - 1
    fro = float(np.vdot(sigma0, sigma0))
    tr = float(np.trace(sigma0))
    d_sq = float(np.vdot(np.diag(sigma0), np.diag(sigma0)))
    return (
        m / n * fro + m / n**2 * tr**2,
        (m / n + m / n**2) * d_sq,
        (m / n) ** 2 * tr**2 + 2 * m / n**2 * fro,
    )


def exact_risk(sigma0, n, grid):
    """R(k) = E || eta S_hat + gamma Tr(S_hat) I - sigma0 ||_F^2 with S_hat = W / (n - 1).

    E[t_ij] = ((n-1)/n) s_ij gives E[S_hat] = sigma0, so the cross terms
    read ||sigma0||_F^2 and Tr(sigma0)^2; the squares are E[Q_til] and
    E[T_til^2] times (n / (n - 1))^2.
    """
    p = sigma0.shape[0]
    e_q, _, e_t_sq = wishart_moments(sigma0, n)
    r_sq = (n / (n - 1)) ** 2
    fro = float(np.vdot(sigma0, sigma0))
    tr = float(np.trace(sigma0))
    eta, gamma = cd_coeff_grid(p, grid)
    return (
        eta**2 * r_sq * e_q
        + (2.0 * eta * gamma + p * gamma**2) * r_sq * e_t_sq
        - 2.0 * eta * fro
        - 2.0 * gamma * tr**2
        + fro
    )


@PROPERTY
@given(
    p=st.integers(2, 12),
    n=st.integers(3, 60),
    seed=st.integers(0, 2**32 - 1),
    ridge=st.floats(0.0, 2.0),
)
def test_sure_minus_risk_does_not_depend_on_k(p, n, seed, ridge):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    sigma0 = a @ a.T / p + ridge * np.eye(p)
    grid = np.arange(1, p + 1)
    e_q, e_d_sq, e_t_sq = wishart_moments(sigma0, n)
    # SURE is linear in Q_til, D_sq and T_til^2 (T_til enters only squared), so
    # select_k at the expected statistics gives E[SURE(k)] exactly; the pair's
    # data only set p and n
    pair = cov_pair(DataMatrix.from_array(rng.standard_normal((p, n))))
    expected = (e_q, e_d_sq, math.sqrt(e_t_sq))
    with mock.patch.object(sure, "_covariance_stats", lambda cov: expected):
        curve = select_k(pair, grid)
    offset = curve.sure_values - exact_risk(sigma0, n, grid)
    scale = float(np.max(np.abs(curve.sure_values)))
    assert float(np.ptp(offset)) <= 1e-10 * scale
    # the constant is sum_ij var(s_hat_ij), which offset_estimate estimates unbiasedly
    variance_sum = (float(np.vdot(sigma0, sigma0)) + float(np.trace(sigma0)) ** 2) / (n - 1)
    np.testing.assert_allclose(offset, variance_sum, rtol=1e-10, atol=0)
    np.testing.assert_allclose(curve.offset_estimate, variance_sum, rtol=1e-10, atol=0)
