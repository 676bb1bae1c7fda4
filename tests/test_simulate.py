import sys

import numpy as np
import pytest

import cdcov.matrices
import cdcov.simulate as simulate
from cdcov import (
    AtConfig,
    PoetConfig,
    CdcovError,
    InvalidInputError,
    RngSeed,
    SimConfig,
    SymMat,
    cd_estimate,
    center_columns,
    cov_pair,
    draw_data,
    make_sigma0,
    op_norm,
    run_cell,
    sparsity_sweep,
)
from cdcov.simulate import ar1_covariance


def base_cfg(**overrides):
    kwargs = dict(setting=1, n=40, p=20, ktr=3, s=0.5, replicates=3, seed=RngSeed(101, 0))
    kwargs.update(overrides)
    return SimConfig(**kwargs)


class TestSimConfig:
    def test_rejects_bad_sparsity(self):
        for s in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidInputError):
                base_cfg(s=s)

    def test_rejects_factor_count_at_dimension(self):
        with pytest.raises(InvalidInputError):
            base_cfg(ktr=20)

    def test_rejects_bad_setting_and_ar(self):
        with pytest.raises(InvalidInputError):
            base_cfg(setting=3)
        with pytest.raises(InvalidInputError):
            base_cfg(setting=2, ar_coef=1.0)
        with pytest.raises(InvalidInputError):
            base_cfg(ar_variance_mode="weird")


class TestSigma0:
    def test_ar1_marginal_variance(self):
        omega = ar1_covariance(5, 0.1, 0.4, "innovation")
        assert omega.values[0, 0] == pytest.approx(0.4 / 0.99)
        assert omega.values[0, 1] == pytest.approx(0.4 / 0.99 * 0.1)
        marginal = ar1_covariance(5, 0.1, 0.4, "marginal")
        assert marginal.values[2, 2] == pytest.approx(0.4)

    def test_exact_zero_count_in_loadings(self):
        # the zero pattern is an exact floor(s p ktr)-sized subset, so the
        # nonzero fraction sits inside the binomial band trivially
        from cdcov.simulate import _loadings

        cfg = base_cfg(p=30, ktr=4, s=0.35)
        n_zero = int(np.floor(cfg.s * cfg.p * cfg.ktr))
        for rep in range(100):
            lam = _loadings(cfg, cfg.seed.generator(rep, 0))
            assert np.count_nonzero(lam == 0.0) == n_zero

    def test_setting1_minimum_eigenvalue(self):
        cfg = base_cfg(sigma0_sq=1.7)
        sigma0 = make_sigma0(cfg, 0)
        w = np.linalg.eigvalsh(sigma0.values)
        assert w[0] >= 1.7 - 1e-9

    def test_setting2_minimum_eigenvalue(self):
        cfg = base_cfg(setting=2)
        sigma0 = make_sigma0(cfg, 0)
        omega = ar1_covariance(cfg.p, cfg.ar_coef, cfg.ar_error_var)
        w_min_omega = float(np.linalg.eigvalsh(omega.values)[0])
        assert w_min_omega > 0.0
        assert float(np.linalg.eigvalsh(sigma0.values)[0]) >= w_min_omega - 1e-9

    def test_per_replicate_truths_differ(self):
        cfg = base_cfg()
        a = make_sigma0(cfg, 0)
        b = make_sigma0(cfg, 1)
        assert not np.array_equal(a.values, b.values)


class TestDrawData:
    def test_large_sample_consistency(self):
        sigma0 = SymMat.from_array(np.eye(6))
        x = center_columns(draw_data(sigma0, 4000, RngSeed(7)))
        pair = cov_pair(x)
        se = np.sqrt((np.eye(6) + 1.0) / 4000)
        assert np.all(np.abs(pair.mle.values - np.eye(6)) <= 3.5 * se)

    def test_single_column_allowed(self):
        x = draw_data(SymMat.from_array(np.eye(3)), 1, RngSeed(8))
        assert x.n == 1

    def test_bit_identical_under_fixed_seed(self):
        sigma0 = SymMat.from_array(np.diag([1.0, 2.0]))
        a = draw_data(sigma0, 10, RngSeed(9, 4))
        b = draw_data(sigma0, 10, RngSeed(9, 4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            draw_data(SymMat.from_array(np.diag([1.0, -1.0])), 5, RngSeed(0))

    def test_near_singular_truth_is_clamped(self):
        a = np.ones((4, 4))  # rank 1, PSD
        x = draw_data(SymMat.from_array(a), 20, RngSeed(1))
        assert np.all(np.isfinite(x.values))


class TestRunCell:
    def test_sample_method_consistency_at_large_n(self):
        cfg = base_cfg(p=10, ktr=1, n=1000, replicates=3)
        (rec,) = run_cell(cfg, ["sample"])
        assert rec.op_err_mean < 0.1
        assert rec.k_hat_mode is None and rec.k_opt is None

    def test_rejects_zero_replicates(self):
        with pytest.raises(InvalidInputError):
            base_cfg(replicates=0)

    def test_rejects_unknown_or_empty_methods(self):
        cfg = base_cfg()
        with pytest.raises(InvalidInputError):
            run_cell(cfg, [])
        with pytest.raises(InvalidInputError):
            run_cell(cfg, ["cd", "mystery"])

    def test_pure_function_of_config(self):
        cfg = base_cfg(replicates=4)
        a = run_cell(cfg, ["cd", "sample"], compute_k_opt=True)
        b = run_cell(cfg, ["cd", "sample"], compute_k_opt=True)
        assert a == b

    def test_threads_do_not_change_results(self):
        cfg = base_cfg(replicates=4)
        a = run_cell(cfg, ["cd", "at"], threads=1)
        b = run_cell(cfg, ["cd", "at"], threads=3)
        assert a == b

    def test_aggregation_matches_manual_replicate_loop(self):
        # re-derive the per-replicate sample-method errors from the same
        # streams and check the mean / standard error aggregation
        cfg = base_cfg(replicates=3)
        (rec,) = run_cell(cfg, ["sample"])
        errors = []
        for rep in range(cfg.replicates):
            sigma0 = make_sigma0(cfg, rep)
            x = center_columns(draw_data(sigma0, cfg.n, cfg.seed.generator(rep, 1)))
            est = cov_pair(x).mle
            diff = SymMat.from_array(est.values - sigma0.values)
            errors.append(op_norm(diff) / cfg.p)
        errors = np.asarray(errors)
        assert rec.op_err_mean == pytest.approx(float(errors.mean()), rel=1e-12)
        assert rec.op_err_se == pytest.approx(
            float(errors.std(ddof=1) / np.sqrt(len(errors))), rel=1e-12
        )

    def test_k_opt_reported_only_for_cd(self):
        cfg = base_cfg(replicates=2)
        records = run_cell(cfg, ["cd", "sample"], compute_k_opt=True, k_grid=[5, 10, 20])
        by_method = {r.method: r for r in records}
        assert by_method["cd"].k_opt in (5, 10, 20)
        assert by_method["sample"].k_opt is None

    @pytest.mark.parametrize(
        "grid", [[2.5, 7.9], [5, 3], [0, 5], [5, 21], []], ids=["non-integral", "decreasing", "k=0", "k>p", "empty"]
    )
    def test_bad_k_grid_raises_before_any_replicate(self, monkeypatch, grid):
        # a non-integral k was truncated (7.9 ran as 7); any bad grid is one
        # error before the first replicate, not a skip in every replicate
        def no_replicate(*args):
            raise AssertionError("replicate ran before the k grid was checked")

        monkeypatch.setattr(simulate, "_replicate", no_replicate)
        with pytest.raises(InvalidInputError):
            run_cell(base_cfg(), ["cd"], k_grid=grid, compute_k_opt=True)

    def test_integral_float_k_grid_equals_int_grid(self):
        cfg = base_cfg(replicates=2)
        as_floats = run_cell(cfg, ["cd"], k_grid=[2.0, 4.0], compute_k_opt=True)
        assert as_floats == run_cell(cfg, ["cd"], k_grid=[2, 4], compute_k_opt=True)

    def test_cell_fails_when_a_method_keeps_skipping(self):
        # an impossible POET factor count makes every replicate skip, which
        # exceeds the 10% tolerance and fails the whole cell
        cfg = base_cfg(replicates=3)
        with pytest.raises(CdcovError):
            run_cell(cfg, ["poet"], poet_factors=min(cfg.n, cfg.p))


class TestReplicate:
    def test_four_methods_build_two_covariances(self, monkeypatch):
        # the replicate's own pair and POET's residual pair; AT and POET
        # read the data and covariance from the pair they are given
        real = cdcov.matrices.cov_pair
        builds = []

        def counted(x):
            builds.append(x.values.shape)
            return real(x)

        for name, module in list(sys.modules.items()):
            if name == "cdcov" or name.startswith("cdcov."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        cfg = base_cfg(replicates=1)
        grid = np.arange(1, cfg.p + 1)
        fits, _ = simulate._replicate(
            cfg, 0, ["cd", "at", "poet", "sample"], grid, AtConfig(), PoetConfig(2), False
        )
        assert sorted(fits) == ["at", "cd", "poet", "sample"]
        assert len(builds) == 2

    def test_k_hat_is_what_fit_chose(self):
        cfg = base_cfg(replicates=1)
        grid = np.arange(1, cfg.p + 1)
        fits, _ = simulate._replicate(cfg, 0, ["cd", "at"], grid, AtConfig(), None, False)
        x = center_columns(draw_data(make_sigma0(cfg, 0), cfg.n, cfg.seed.generator(0, 1)))
        _, chosen = simulate.fit(
            "cd", cov_pair(x), seed=None, k_grid=grid, k=None, at_config=AtConfig(), poet_config=None
        )
        assert {method: k_hat for method, (_, _, k_hat) in fits.items()} == {"cd": chosen["k"], "at": None}


class TestFit:
    def test_chosen_keys(self):
        cfg = base_cfg()
        pair = cov_pair(center_columns(draw_data(make_sigma0(cfg), cfg.n, RngSeed(2))))
        kwargs = dict(
            seed=RngSeed(3), k_grid=[5, 10, 20], k=None, at_config=AtConfig(), poet_config=PoetConfig(2)
        )
        keys = {m: set(simulate.fit(m, pair, **kwargs)[1]) for m in simulate.METHODS}
        assert keys == {"cd": {"k", "sure_min"}, "at": {"delta"}, "poet": set(), "sample": set()}
        est, chosen = simulate.fit("cd", pair, **{**kwargs, "k": 7})
        assert chosen == {"k": 7}
        np.testing.assert_array_equal(est.values, cd_estimate(pair.mle, 7).values)
        with pytest.raises(InvalidInputError):
            simulate.fit("mystery", pair, **kwargs)


class TestSweep:
    def test_singleton_matches_run_cell(self):
        cfg = base_cfg(replicates=2)
        a = sparsity_sweep(cfg, [0.1], ["cd"])
        from dataclasses import replace

        b = run_cell(replace(cfg, s=0.1), ["cd"])
        assert a == b

    def test_output_shape(self):
        cfg = base_cfg(replicates=2)
        records = sparsity_sweep(cfg, [0.2, 0.5, 0.8], ["cd", "sample"])
        assert len(records) == 6
        assert sorted({r.s for r in records}) == [0.2, 0.5, 0.8]

    def test_rejects_out_of_range_sparsity(self):
        cfg = base_cfg()
        with pytest.raises(InvalidInputError):
            sparsity_sweep(cfg, [0.5, 1.0], ["cd"])
        with pytest.raises(InvalidInputError):
            sparsity_sweep(cfg, [], ["cd"])
