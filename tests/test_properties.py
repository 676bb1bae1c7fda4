"""Property tests of the invariances the estimator owes its input.

Scaling the data by a power of two scales every floating-point step of
the SURE pipeline exactly, so the SURE values scale by exactly 2^(4j) and
k_hat does not move. Permuting the variables only reorders sums, so SURE
agrees to rounding and the CD map commutes with the permutation.

Examples are derandomized: the suite draws the same cases on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcov import DataMatrix, SymMat, cd_estimate, center_columns, cov_pair, select_k

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def data(draw):
    """A p x n standard normal data matrix, 2 <= p <= 24 and 3 <= n <= 24."""
    p = draw(st.integers(2, 24))
    n = draw(st.integers(3, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal((p, n))


def curve(x):
    pair = cov_pair(center_columns(DataMatrix.from_array(x)))
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
    s = cov_pair(center_columns(DataMatrix.from_array(x))).mle
    moved = cd_estimate(SymMat(s.values[np.ix_(perm, perm)]), k).values
    np.testing.assert_allclose(moved, cd_estimate(s, k).values[np.ix_(perm, perm)], rtol=1e-13, atol=0)
