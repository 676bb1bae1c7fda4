import logging
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cdcov import (
    AtConfig,
    DataMatrix,
    InvalidInputError,
    PoetConfig,
    RngSeed,
    SimConfig,
    SymMat,
    adaptive_threshold,
    cd_estimate,
    center_columns,
    cov_pair,
    cross_validate_delta,
    default_delta_grid,
    default_k_grid,
    draw_data,
    hard_threshold_estimate,
    poet,
    risk_oracle,
    run_cell,
    unbiased_moment_coeffs,
)
from cdcov.baselines import _apply_hard, _centered_cov, _threshold_base
from cdcov.estimator import cd_coeff_grid
from cdcov.haar import haar_mc_oracle_grid
from cdcov.simulate import fit
from _cv_oracle import cross_validate_delta_sorted, hard_threshold_dense, poet_dense, upper_mask
from _sure_oracle import closed_form_curve


def data(rng, p, n, root=None):
    x = rng.standard_normal((p, n)) if root is None else root @ rng.standard_normal((p, n))
    return DataMatrix.from_array(x)


def centered(rng, p, n, root=None):
    return center_columns(data(rng, p, n, root))


_CELL = SimConfig(setting=1, n=40, p=20, ktr=3, s=0.5, replicates=2, seed=RngSeed(101))
_SIGMA0 = SymMat.from_array(np.eye(3))


@pytest.mark.parametrize(
    "name, build",
    [
        # array_split truncated 2.5 folds to 2
        ("folds", lambda: AtConfig(folds=2.5)),
        ("folds", lambda: AtConfig(folds="3")),
        # a fractional factor count used to fail only after a p x p eigh
        ("n_factors", lambda: PoetConfig(n_factors=2.5)),
        ("n_factors", lambda: run_cell(_CELL, ["poet"], poet_factors=1.5)),
        ("threads", lambda: run_cell(_CELL, ["cd"], threads="2")),
        ("grid_step", lambda: default_k_grid(20, step=2.5)),
        ("delta_count", lambda: default_delta_grid(0.1, 1.0, count=2.5)),
    ],
    ids=["folds float", "folds str", "n_factors", "poet_factors", "threads", "grid_step", "delta_count"],
)
def test_non_integer_counts_are_named_errors(name, build):
    with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
        build()


@pytest.mark.parametrize(
    "message, build",
    [
        # bool subclasses int, so these used to pass as 1 (or 0)
        ("n_factors must be an integer", lambda: PoetConfig(n_factors=True)),
        ("setting must be an integer", lambda: replace(_CELL, setting=True)),
        ("ktr must be an integer", lambda: replace(_CELL, ktr=True)),
        ("replicates must be an integer", lambda: replace(_CELL, replicates=True)),
        ("seed must be an unsigned 64-bit integer", lambda: RngSeed(True)),
        ("stream_id must be an unsigned 64-bit integer", lambda: RngSeed(1, False)),
        # int() used to truncate these to 3 and 2
        ("n must be an integer, got 3.7", lambda: unbiased_moment_coeffs(3.7)),
        # the coefficient cache is typed: a cached np.int64(5), equal to 5.0 as a key, does not answer for 5.0
        ("n must be an integer, got 5.0", lambda: (unbiased_moment_coeffs(np.int64(5)), unbiased_moment_coeffs(5.0))),
        ("p must be an integer, got 2.9", lambda: cd_coeff_grid(2.9, 1)),
        # each count's first value below its minimum
        ("delta_count must be >= 0, got -1", lambda: default_delta_grid(0.1, 1.0, count=-1)),
        ("folds must be >= 2, got 1", lambda: AtConfig(folds=1)),
        ("n_factors must be >= 0, got -1", lambda: PoetConfig(n_factors=-1)),
        ("sample count must be >= 1, got 0", lambda: haar_mc_oracle_grid([_SIGMA0], [1], 0, RngSeed(1))),
        ("setting must be >= 1, got 0", lambda: replace(_CELL, setting=0)),
        ("n must be >= 2, got 1", lambda: replace(_CELL, n=1)),
        ("p must be >= 2, got 1", lambda: replace(_CELL, p=1)),
        ("ktr must be >= 1, got 0", lambda: replace(_CELL, ktr=0)),
        ("replicates must be >= 1, got 0", lambda: replace(_CELL, replicates=0)),
        ("n must be >= 1, got 0", lambda: draw_data(_SIGMA0, 0, RngSeed(1))),
        ("replicate count must be >= 1, got 0", lambda: risk_oracle(_SIGMA0, 5, [1], 0, RngSeed(1))),
        ("n must be >= 2, got 1", lambda: risk_oracle(_SIGMA0, 1, [1], 2, RngSeed(1))),
        ("threads must be >= 1, got 0", lambda: run_cell(_CELL, ["cd"], threads=0)),
        ("p must be >= 2, got 1", lambda: default_k_grid(1)),
        ("grid_step must be >= 1, got 0", lambda: default_k_grid(20, step=0)),
        ("n must be >= 3, got 2", lambda: unbiased_moment_coeffs(2)),
        ("p must be >= 2, got 1", lambda: cd_coeff_grid(1, 1)),
    ],
    ids=[
        "n_factors", "setting", "ktr", "replicates", "seed", "stream_id", "moment n 3.7", "moment n 5.0 cached",
        "coeff p 2.9",
        "delta_count -1", "folds 1", "n_factors -1", "samples 0", "setting 0", "cell n 1", "cell p 1", "ktr 0",
        "replicates 0", "draw n 0", "oracle reps 0", "oracle n 1", "threads 0", "grid p 1", "grid_step 0",
        "moment n 2", "coeff p 1",
    ],
)
def test_bool_counts_are_named_errors(message, build):
    """A bool, a non-integer or a value below its minimum is a count's named error (``matrices._check_count``)."""
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        build()


_PAIR = cov_pair(DataMatrix.from_array(np.random.default_rng(16).standard_normal((4, 20))))


@pytest.mark.parametrize(
    "message, build",
    [
        # a string used to raise a bare TypeError at the first comparison
        ("delta must be a real number", lambda: hard_threshold_estimate(_PAIR, "0.5")),
        ("delta_min must be a real number", lambda: default_delta_grid("0.1", 1.0)),
        ("s must be a real number", lambda: SimConfig(setting=1, n=40, p=20, ktr=3, s="0.5", replicates=2, seed=RngSeed(1))),
        ("ar_coef must be a real number", lambda: SimConfig(setting=2, n=40, p=20, ktr=3, s=0.5, replicates=2, seed=RngSeed(1), ar_coef="0.1")),
        # float() used to parse these, and a bool compares as 0 or 1
        ("delta_grid entry must be a real number", lambda: AtConfig(delta_grid=("0.5", 1))),
        ("delta_grid entry must be a real number", lambda: AtConfig(delta_grid=(True, 2))),
        ("delta must be a real number", lambda: hard_threshold_estimate(_PAIR, True)),
        ("delta_min must be a real number", lambda: default_delta_grid(True, 2.0)),
        ("sigma0_sq must be a real number", lambda: SimConfig(setting=1, n=40, p=20, ktr=3, s=0.5, replicates=2, seed=RngSeed(1), sigma0_sq=True)),
        # each real's first value out of its range
        ("delta_min must lie in (0, inf), got 0", lambda: default_delta_grid(0, 1.0)),
        ("delta_max must lie in (0, inf), got inf", lambda: default_delta_grid(0.1, np.inf)),
        ("delta_grid entry must lie in [0, inf), got -1e-300", lambda: AtConfig(delta_grid=(-1e-300, 1.0))),
        ("delta must lie in [0, inf), got -1e-300", lambda: hard_threshold_estimate(_PAIR, -1e-300)),
        ("s must lie in (0, 1), got 0", lambda: replace(_CELL, s=0)),
        ("s must lie in (0, 1), got 1", lambda: replace(_CELL, s=1)),
        ("sigma0_sq must lie in (0, inf), got 0.0", lambda: replace(_CELL, sigma0_sq=0.0)),
        ("ar_error_var must lie in (0, inf), got 0.0", lambda: replace(_CELL, ar_error_var=0.0)),
        ("ar_coef must lie in (-1, 1), got -1", lambda: replace(_CELL, ar_coef=-1)),
    ],
    ids=[
        "delta str", "delta_min str", "s str", "ar_coef str", "grid str", "grid bool", "delta bool", "delta_min bool",
        "sigma0_sq bool", "delta_min 0", "delta_max inf", "grid -1e-300", "delta -1e-300", "s 0", "s 1",
        "sigma0_sq 0", "ar_error_var 0", "ar_coef -1",
    ],
)
def test_non_real_parameters_are_named_errors(message, build):
    """A bool, a non-number or a value out of its range is a real's named error (``matrices._check_real``)."""
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        build()


def test_integer_and_numpy_reals_are_accepted():
    assert AtConfig(delta_grid=(0, np.float32(0.5), np.int64(2))).delta_grid == (0.0, 0.5, 2.0)
    assert default_delta_grid(1, np.float64(2.0), 2) == (1.0, 2.0)
    np.testing.assert_array_equal(hard_threshold_estimate(_PAIR, 1).values, hard_threshold_estimate(_PAIR, 1.0).values)
    # -0.0 is in [0, inf)
    assert AtConfig(delta_grid=(-0.0, 1)).delta_grid == (0.0, 1.0)
    assert hard_threshold_estimate(_PAIR, -0.0).values.tobytes() == hard_threshold_estimate(_PAIR, 0.0).values.tobytes()


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
        with pytest.raises(InvalidInputError, match="delta_grid entry must be a real number"):
            AtConfig(delta_grid=(0.1, "a"))
        with pytest.raises(InvalidInputError, match="delta_grid must be a sequence of numbers"):
            AtConfig(delta_grid=0.5)

    def test_zero_delta_allowed(self):
        AtConfig(delta_grid=(0.0,))


class TestThresholding:
    def test_zero_delta_returns_sample_covariance(self):
        rng = np.random.default_rng(0)
        pair = cov_pair(data(rng, 6, 30))
        est = hard_threshold_estimate(pair, 0.0)
        np.testing.assert_allclose(est.values, pair.mle.values, atol=1e-15)

    def test_huge_delta_returns_diagonal(self):
        rng = np.random.default_rng(1)
        pair = cov_pair(data(rng, 6, 30))
        est = hard_threshold_estimate(pair, 1e9)
        s = pair.mle.values
        np.testing.assert_allclose(est.values, np.diag(np.diag(s)))

    def test_survivors_equal_sample_entries_exactly(self):
        rng = np.random.default_rng(2)
        pair = cov_pair(data(rng, 8, 40))
        est = hard_threshold_estimate(pair, 0.8)
        s = pair.mle.values
        mask = est.values != 0.0
        np.testing.assert_array_equal(est.values[mask], s[mask])

    def test_idempotent_under_fixed_thresholds(self):
        rng = np.random.default_rng(3)
        xc, s = _centered_cov(centered(rng, 7, 35).values)
        upper = upper_mask(7)
        base = _threshold_base(xc, s, upper)
        once = _apply_hard(s, base, 0.6, upper)
        twice = _apply_hard(once, base, 0.6, upper)
        np.testing.assert_array_equal(once, twice)

    def test_zero_variance_count_is_logged_at_debug_only(self, caplog):
        # a constant variable makes its products constant: zero product variance
        x = centered(np.random.default_rng(6), 4, 20).values.copy()
        x[0] = 0.0
        xc, s = _centered_cov(x)
        upper = upper_mask(4)
        with caplog.at_level(logging.INFO, logger="cdcov.baselines"):
            base_info = _threshold_base(xc, s, upper)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="cdcov.baselines"):
            base_debug = _threshold_base(xc, s, upper)
        # the pairs of the constant variable with the other three
        assert [r.getMessage() for r in caplog.records] == [
            "adaptive threshold: 3 pairs with zero product variance"
        ]
        np.testing.assert_array_equal(base_info, base_debug)

    def test_negative_delta_rejected(self):
        rng = np.random.default_rng(4)
        pair = cov_pair(data(rng, 4, 20))
        # AtConfig's rule, 0 <= delta < inf; NaN used to return the diagonal
        for delta in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match=r"delta must lie in \[0, inf\)"):
                hard_threshold_estimate(pair, delta)


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
        pair = cov_pair(data(rng, 6, 30))
        est = adaptive_threshold(pair, AtConfig(), RngSeed(3))
        s = pair.mle.values
        np.testing.assert_array_equal(np.diag(est.values), np.diag(s))


class TestPoet:
    def test_zero_factors_reduces_to_adaptive_threshold(self):
        rng = np.random.default_rng(10)
        pair = cov_pair(data(rng, 6, 30))
        cfg = PoetConfig(n_factors=0)
        a = poet(pair, cfg, RngSeed(4))
        b = adaptive_threshold(pair, cfg.residual_threshold, RngSeed(4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_rank_one_sample_with_one_factor_is_exact(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(5)
        z = rng.standard_normal(10)
        pair = cov_pair(DataMatrix.from_array(np.outer(u, z)))
        s = pair.mle
        est = poet(pair, PoetConfig(n_factors=1), RngSeed(5))
        np.testing.assert_allclose(est.values, s.values, atol=1e-12 * max(1.0, s.trace()))

    def test_factor_count_above_rank_rejected(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal(5)
        z = rng.standard_normal(10)
        pair = cov_pair(DataMatrix.from_array(np.outer(u, z)))
        with pytest.raises(InvalidInputError):
            poet(pair, PoetConfig(n_factors=2), RngSeed(6))

    def test_factor_count_at_min_dim_rejected(self):
        rng = np.random.default_rng(13)
        pair = cov_pair(data(rng, 4, 20))
        with pytest.raises(InvalidInputError):
            poet(pair, PoetConfig(n_factors=4), RngSeed(7))

    def test_negative_factor_count_rejected(self):
        with pytest.raises(InvalidInputError):
            PoetConfig(n_factors=-1)

    def test_huge_residual_delta_keeps_spectral_plus_sample_diagonal(self):
        rng = np.random.default_rng(14)
        pair = cov_pair(data(rng, 8, 40))
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
        pair = cov_pair(data(rng, 6, 30))
        a = poet(pair, PoetConfig(n_factors=2), RngSeed(11, 1))
        b = poet(pair, PoetConfig(n_factors=2), RngSeed(11, 1))
        np.testing.assert_array_equal(a.values, b.values)


def edge_data(name):
    rng = np.random.default_rng(17)
    if name == "p=1":
        return rng.standard_normal((1, 20))
    if name == "p=2":
        return rng.standard_normal((2, 20))
    if name == "n=folds":
        return rng.standard_normal((6, 5))
    if name == "n=3":
        return rng.standard_normal((6, 3))
    if name == "n=2":
        return rng.standard_normal((6, 2))
    if name == "constant row":
        x = rng.standard_normal((6, 20))
        x[3] = 2.5
        return x
    return np.full((4, 20), 1.25)  # constant data


def fit_cd_or_sample(method, pair, k=None):
    """``fit`` with SURE over every k in 1..p for cd when ``k`` is None."""
    k_grid = np.arange(1, pair.x.p + 1) if method == "cd" and k is None else None
    return fit(method, pair, seed=None, k_grid=k_grid, k=k, at_config=None, poet_config=None)


def fit_at_or_poet(method, pair, n_factors=1, delta_grid=None):
    at_config = AtConfig() if delta_grid is None else AtConfig(delta_grid)
    return fit(
        method, pair, seed=RngSeed(3), k_grid=None, k=None, at_config=at_config, poet_config=PoetConfig(n_factors)
    )


class TestEdgeInputsThroughFit:
    """Each method through ``fit`` on edge inputs: a value pinned byte for byte, or a named error.

    AT and POET give the estimate of the whole-matrix restatement in ``_cv_oracle``; p = 1 has an
    empty upper triangle. cd gives the k and SURE minimum of the closed forms restated in
    ``_sure_oracle`` and ``cd_estimate`` of the pair's S at that k; sample gives S itself."""

    @pytest.mark.parametrize("name", ["p=1", "p=2", "n=folds", "constant row", "constant data"])
    def test_at(self, name):
        pair = cov_pair(DataMatrix.from_array(edge_data(name)))
        est, chosen = fit_at_or_poet("at", pair)
        assert chosen["delta"] == cross_validate_delta_sorted(pair.x, AtConfig(), RngSeed(3))
        assert est.values.tobytes() == hard_threshold_dense(pair, chosen["delta"]).tobytes()
        # with no off-diagonal pair the losses are flat: ties go to the smallest delta
        if name in ("p=1", "constant data"):
            assert chosen["delta"] == AtConfig().delta_grid[0]
            assert est.values.tobytes() == pair.mle.values.tobytes()
        if name == "constant row":
            assert not est.values[3].any() and not est.values[:, 3].any()
        # n_factors = 0 is plain adaptive thresholding
        assert fit_at_or_poet("poet", pair, 0)[0].values.tobytes() == est.values.tobytes()

    @pytest.mark.parametrize("name", ["p=2", "n=folds", "constant row"])
    def test_poet(self, name):
        pair = cov_pair(DataMatrix.from_array(edge_data(name)))
        est = fit_at_or_poet("poet", pair)[0]
        assert est.values.tobytes() == poet_dense(pair, PoetConfig(1), RngSeed(3)).tobytes()

    @pytest.mark.parametrize(
        "name,message",
        [
            ("p=1", r"n_factors must be < min\(n, p\) = 1, got 1"),
            ("constant data", r"n_factors=1 exceeds the sample covariance rank 0"),
        ],
    )
    def test_poet_named_errors(self, name, message):
        with pytest.raises(InvalidInputError, match=message):
            fit_at_or_poet("poet", cov_pair(DataMatrix.from_array(edge_data(name))))

    @pytest.mark.parametrize("name", ["n=3", "n=2", "p=1", "p=2", "constant row", "constant data"])
    def test_sample(self, name):
        pair = cov_pair(DataMatrix.from_array(edge_data(name)))
        est, chosen = fit_cd_or_sample("sample", pair)
        assert chosen == {}
        assert est.values.tobytes() == pair.mle.values.tobytes()

    @pytest.mark.parametrize("name", ["n=3", "p=2", "constant row", "constant data"])
    def test_cd(self, name):
        pair = cov_pair(DataMatrix.from_array(edge_data(name)))
        est, chosen = fit_cd_or_sample("cd", pair)
        want = closed_form_curve(pair, np.arange(1, pair.x.p + 1))
        assert chosen == {"k": want["k_hat"], "sure_min": float(np.min(want["sure_values"]))}
        assert est.values.tobytes() == cd_estimate(pair.mle, chosen["k"]).values.tobytes()
        if name == "p=2":
            assert chosen["k"] == 2
        if name == "constant data":
            # S = 0: the zero estimate, SURE 0 at every k, and the tie goes to the smallest k
            assert chosen == {"k": 1, "sure_min": 0.0}
            assert est.values.tobytes() == np.zeros((4, 4)).tobytes()

    @pytest.mark.parametrize("k", [1, 6])
    def test_cd_at_a_given_k(self, k):
        pair = cov_pair(DataMatrix.from_array(edge_data("constant row")))
        est, chosen = fit_cd_or_sample("cd", pair, k)
        assert chosen == {"k": k}
        assert est.values.tobytes() == cd_estimate(pair.mle, k).values.tobytes()

    @pytest.mark.parametrize(
        "name,k,message",
        [
            ("n=2", None, "SURE needs n >= 3, got n=2"),
            ("p=1", None, "p must be >= 2, got 1"),
            ("p=1", 1, "p must be >= 2, got 1"),
            ("constant row", 7, "compressed dimension must satisfy 1 <= k <= p=6, got k=7"),
        ],
        ids=["n=2", "p=1", "p=1 k=1", "k=p+1"],
    )
    def test_cd_named_errors(self, name, k, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            fit_cd_or_sample("cd", cov_pair(DataMatrix.from_array(edge_data(name))), k)

    @pytest.mark.parametrize("delta", [0.0, 1e300])
    def test_at_at_one_delta(self, delta):
        pair = cov_pair(DataMatrix.from_array(edge_data("n=folds")))
        est, chosen = fit_at_or_poet("at", pair, delta_grid=(delta,))
        assert chosen == {"delta": delta}
        # delta = 0 keeps every nonzero entry; 1e300 keeps only the diagonal
        s = pair.mle.values
        assert est.values.tobytes() == (s if delta == 0.0 else np.diag(np.diag(s))).tobytes()

    @pytest.mark.parametrize("method", ["at", "poet"])
    def test_fewer_observations_than_folds(self, method):
        pair = cov_pair(DataMatrix.from_array(np.random.default_rng(17).standard_normal((6, 4))))
        with pytest.raises(InvalidInputError, match=r"need n >= folds, got n=4, folds=5"):
            fit_at_or_poet(method, pair)


# tracemalloc peaks at p = 400, n = 100 (POET with K = 50), in units of 8p^2, with the pair and its S
# built before tracing: measured at data seeds 5 and 11 (4.459 and 4.456, 2.183 and 2.183, 7.088 and
# 7.088), rounded up. The margin is one p x n data matrix, n / p = 0.25. The bounds catch a threshold
# base formed on the whole matrix rather than its strict upper triangle (5.53, 3.50 and 8.16) and a
# POET that keeps a sorted copy of all p eigenvectors (7.97).
PEAKS = {"cross_validate_delta": 4.46, "hard_threshold_estimate": 2.19, "poet": 7.09}


@pytest.mark.parametrize("name", PEAKS)
def test_comparator_peak_memory(name):
    p, n = 400, 100
    pair = cov_pair(data(np.random.default_rng(7), p, n))
    pair.mle  # built before tracing
    call = {
        "cross_validate_delta": lambda: cross_validate_delta(pair.x, AtConfig(), RngSeed(7)),
        "hard_threshold_estimate": lambda: hard_threshold_estimate(pair, 0.5),
        "poet": lambda: poet(pair, PoetConfig(50), RngSeed(7)),
    }[name]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * p * p) <= PEAKS[name] + n / p
