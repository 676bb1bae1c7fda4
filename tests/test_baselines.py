import numpy as np
import pytest

from cdcov import (
    AtConfig,
    DataMatrix,
    InvalidInputError,
    PoetConfig,
    RngSeed,
    adaptive_threshold,
    center_columns,
    cov_pair,
    cross_validate_delta,
    default_delta_grid,
    hard_threshold_estimate,
    poet,
)
from cdcov.baselines import _apply_hard, _sample_cov, _threshold_base


def centered(rng, p, n, root=None):
    x = rng.standard_normal((p, n)) if root is None else root @ rng.standard_normal((p, n))
    return center_columns(DataMatrix.from_array(x))


class TestAtConfig:
    def test_default_grid(self):
        grid = default_delta_grid()
        assert len(grid) == 50
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(5.0)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            AtConfig(delta_grid=())
        with pytest.raises(InvalidInputError):
            AtConfig(delta_grid=(0.5, 0.2))
        with pytest.raises(InvalidInputError):
            AtConfig(delta_grid=(-0.1, 0.2))
        with pytest.raises(InvalidInputError):
            AtConfig(folds=1)

    def test_zero_delta_allowed(self):
        AtConfig(delta_grid=(0.0,))


class TestThresholding:
    def test_zero_delta_returns_sample_covariance(self):
        rng = np.random.default_rng(0)
        pair = cov_pair(centered(rng, 6, 30))
        est = hard_threshold_estimate(pair, 0.0)
        np.testing.assert_allclose(est.values, pair.mle.values, atol=1e-15)

    def test_huge_delta_returns_diagonal(self):
        rng = np.random.default_rng(1)
        pair = cov_pair(centered(rng, 6, 30))
        est = hard_threshold_estimate(pair, 1e9)
        s = pair.mle.values
        np.testing.assert_allclose(est.values, np.diag(np.diag(s)))

    def test_survivors_equal_sample_entries_exactly(self):
        rng = np.random.default_rng(2)
        pair = cov_pair(centered(rng, 8, 40))
        est = hard_threshold_estimate(pair, 0.8)
        s = pair.mle.values
        mask = est.values != 0.0
        np.testing.assert_array_equal(est.values[mask], s[mask])

    def test_idempotent_under_fixed_thresholds(self):
        rng = np.random.default_rng(3)
        x = centered(rng, 7, 35)
        s = _sample_cov(x.values)
        thr = 0.6 * _threshold_base(x.values, s)
        once = _apply_hard(s, thr)
        twice = _apply_hard(once, thr)
        np.testing.assert_array_equal(once, twice)

    def test_negative_delta_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidInputError):
            hard_threshold_estimate(cov_pair(centered(rng, 4, 20)), -0.1)


class TestCrossValidation:
    def test_singleton_grid_short_circuits(self):
        rng = np.random.default_rng(5)
        x = centered(rng, 5, 25)
        cfg = AtConfig(delta_grid=(0.7,))
        assert cross_validate_delta(x, cfg, RngSeed(1)) == 0.7

    def test_same_seed_same_delta(self):
        rng = np.random.default_rng(6)
        x = centered(rng, 6, 30)
        cfg = AtConfig()
        a = cross_validate_delta(x, cfg, RngSeed(9, 2))
        b = cross_validate_delta(x, cfg, RngSeed(9, 2))
        assert a == b

    def test_rejects_too_few_observations(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InvalidInputError):
            cross_validate_delta(centered(rng, 4, 4), AtConfig(folds=5), RngSeed(0))

    def test_cv_rejects_unthresholded_under_diagonal_truth(self):
        # diagonal truth: off-diagonal sample entries are pure noise, so CV
        # should pick a positive delta nearly always
        rng = np.random.default_rng(8)
        root = np.diag(np.linspace(1.0, 2.0, 20))
        cfg = AtConfig(delta_grid=(0.0, 0.5, 1.0, 2.0, 4.0))
        positive = 0
        runs = 100
        for i in range(runs):
            x = centered(rng, 20, 40, root=root)
            positive += cross_validate_delta(x, cfg, RngSeed(100 + i)) > 0.0
        assert positive >= 0.9 * runs

    def test_adaptive_threshold_end_to_end(self):
        rng = np.random.default_rng(9)
        pair = cov_pair(centered(rng, 6, 30))
        est = adaptive_threshold(pair, AtConfig(), RngSeed(3))
        s = pair.mle.values
        np.testing.assert_array_equal(np.diag(est.values), np.diag(s))


class TestPoet:
    def test_zero_factors_reduces_to_adaptive_threshold(self):
        rng = np.random.default_rng(10)
        pair = cov_pair(centered(rng, 6, 30))
        cfg = PoetConfig(n_factors=0)
        a = poet(pair, cfg, RngSeed(4))
        b = adaptive_threshold(pair, cfg.residual_threshold, RngSeed(4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_rank_one_sample_with_one_factor_is_exact(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(5)
        z = rng.standard_normal(10)
        pair = cov_pair(center_columns(DataMatrix.from_array(np.outer(u, z))))
        s = pair.mle
        est = poet(pair, PoetConfig(n_factors=1), RngSeed(5))
        np.testing.assert_allclose(est.values, s.values, atol=1e-12 * max(1.0, s.trace()))

    def test_factor_count_above_rank_rejected(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal(5)
        z = rng.standard_normal(10)
        pair = cov_pair(center_columns(DataMatrix.from_array(np.outer(u, z))))
        with pytest.raises(InvalidInputError):
            poet(pair, PoetConfig(n_factors=2), RngSeed(6))

    def test_factor_count_at_min_dim_rejected(self):
        rng = np.random.default_rng(13)
        pair = cov_pair(centered(rng, 4, 20))
        with pytest.raises(InvalidInputError):
            poet(pair, PoetConfig(n_factors=4), RngSeed(7))

    def test_negative_factor_count_rejected(self):
        with pytest.raises(InvalidInputError):
            PoetConfig(n_factors=-1)

    def test_huge_residual_delta_keeps_spectral_plus_sample_diagonal(self):
        rng = np.random.default_rng(14)
        pair = cov_pair(centered(rng, 8, 40))
        cfg = PoetConfig(n_factors=2, residual_threshold=AtConfig(delta_grid=(1e9,)))
        est = poet(pair, cfg, RngSeed(8))
        s = pair.mle.values
        w, v = np.linalg.eigh(s)
        top = v[:, -2:]
        spectral = (top * w[-2:][None, :]) @ top.T
        expected = spectral + np.diag(np.diag(s - spectral))
        np.testing.assert_allclose(est.values, expected, atol=1e-12 * np.abs(s).max())
        np.testing.assert_allclose(np.diag(est.values), np.diag(s), rtol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(15)
        pair = cov_pair(centered(rng, 6, 30))
        a = poet(pair, PoetConfig(n_factors=2), RngSeed(11, 1))
        b = poet(pair, PoetConfig(n_factors=2), RngSeed(11, 1))
        np.testing.assert_array_equal(a.values, b.values)
