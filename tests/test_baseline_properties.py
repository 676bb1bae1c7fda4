"""Property tests of the invariances the comparators owe their input.

Scaling the data by a power of two scales every floating-point step of AT
and POET exactly: each ratio |s| / base is unchanged, so the
cross-validated delta does not move, and both estimates scale by exactly
4^j. Permuting the variables only reorders sums, so both estimates commute
with the permutation to rounding. The cross-validated delta is then the
same wherever the loss curve of the per-delta oracle in ``_cv_oracle``
separates its minimum from the next distinct value by more than rounding;
a flatter curve may pick another delta.

Examples are derandomized: the suite draws the same cases on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcov import (
    AtConfig,
    DataMatrix,
    PoetConfig,
    RngSeed,
    cov_pair,
    cross_validate_delta,
    hard_threshold_estimate,
    poet,
)
from _cv_oracle import fold_losses_direct, fold_parts

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
AT = AtConfig()


@st.composite
def data(draw):
    """A p x n correlated normal data matrix, 2 <= p <= 24 and 5 <= n <= 24 (n >= AT's 5 folds)."""
    p = draw(st.integers(2, 24))
    n = draw(st.integers(AT.folds, 24))
    mixing = draw(st.floats(0.0, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root = np.eye(p) + mixing * rng.standard_normal((p, p)) / np.sqrt(p)
    return root @ rng.standard_normal((p, n))


def n_factors(x, frac):
    """A factor count in [1, min(n, p) - 1], which the centered sample covariance's rank allows."""
    return 1 + int(frac * (min(x.shape) - 2))


def fit(x, k, seed):
    """(AT's delta, AT's estimate, POET's estimate with k factors) on the data ``x``."""
    pair = cov_pair(DataMatrix.from_array(x))
    delta = cross_validate_delta(pair.x, AT, seed)
    return delta, hard_threshold_estimate(pair, delta).values, poet(pair, PoetConfig(k, AT), seed).values


@PROPERTY
@given(x=data(), j=st.integers(-3, 3), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
def test_power_of_two_scaling_scales_at_and_poet_exactly(x, j, frac, seed):
    k = n_factors(x, frac)
    delta, at, po = fit(x, k, RngSeed(seed))
    delta_scaled, at_scaled, po_scaled = fit(x * 2.0**j, k, RngSeed(seed))
    assert delta_scaled == delta
    np.testing.assert_array_equal(at_scaled, at * 4.0**j)
    np.testing.assert_array_equal(po_scaled, po * 4.0**j)


def loss_gap(x, seed):
    """The per-delta oracle's summed CV losses: their minimum and its distance to the next distinct value."""
    losses = sum(fold_losses_direct(s, v, base, AT.delta_grid) for s, v, base in fold_parts(x, AT, seed))
    low = float(losses.min())
    above = losses[losses > low]
    return low, float(above.min()) - low if above.size else np.inf


@PROPERTY
@given(
    x=data(),
    perm_seed=st.integers(0, 2**32 - 1),
    frac=st.floats(0.0, 1.0),
    residual_delta=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
    seed=st.integers(0, 2**16),
)
def test_at_and_poet_commute_with_permuting_variables(x, perm_seed, frac, residual_delta, seed):
    perm = np.random.default_rng(perm_seed).permutation(x.shape[0])
    moved = np.ix_(perm, perm)
    pair = cov_pair(DataMatrix.from_array(x))
    pair_perm = cov_pair(DataMatrix.from_array(x[perm]))
    atol = 1e-12 * float(np.abs(pair.mle.values).max())

    delta = cross_validate_delta(pair.x, AT, RngSeed(seed))
    low, gap = loss_gap(pair.x, RngSeed(seed))
    if gap > 1e-10 * low:
        assert cross_validate_delta(pair_perm.x, AT, RngSeed(seed)) == delta
    at = hard_threshold_estimate(pair, delta).values
    np.testing.assert_allclose(hard_threshold_estimate(pair_perm, delta).values, at[moved], rtol=0, atol=atol)

    # a one-delta residual grid skips the residual's cross-validation
    cfg = PoetConfig(n_factors(x, frac), AtConfig(delta_grid=(residual_delta,)))
    po = poet(pair, cfg, RngSeed(seed)).values
    np.testing.assert_allclose(poet(pair_perm, cfg, RngSeed(seed)).values, po[moved], rtol=0, atol=atol)
