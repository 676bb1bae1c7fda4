from fractions import Fraction

import numpy as np
import pytest

from cdcov import (
    DataMatrix,
    InvalidInputError,
    RngSeed,
    SimConfig,
    SymMat,
    center_columns,
    cov_pair,
    default_k_grid,
    draw_data,
    make_sigma0,
    risk_oracle,
    select_k,
    unbiased_moment_coeffs,
)
from cdcov.estimator import cd_coeff_grid
from cdcov.sure import cd_risk_curve
from _sure_oracle import (
    cov_hat_diag_pair,
    moment_coeffs,
    sure_direct,
    sure_direct_parts,
    var_hat_diag,
    var_hat_off,
)


def random_shapes(rng, count=4):
    """``count`` random (p, n) with p < n and as many with p > n."""
    shapes = []
    for _ in range(count):
        p = int(rng.integers(2, 41))
        shapes.append((p, int(rng.integers(p + 1, 81))))
        p = int(rng.integers(4, 61))
        shapes.append((p, int(rng.integers(3, p))))
    return shapes


def centered_pair(rng, p, n, scale=1.0):
    x = scale * rng.standard_normal((p, n))
    return cov_pair(center_columns(DataMatrix.from_array(x)))


class TestMomentCoeffs:
    def test_closed_forms_at_n_10(self):
        c = moment_coeffs(10)
        assert c.a_n == pytest.approx(8600 / 87156)
        assert c.b_n == pytest.approx(1000 / (9 * 1076))
        assert c.c_n == pytest.approx(100 * 176 / (81 * 1076))
        assert c.d_n == pytest.approx(2 * 100 * 12 / (9 * 1076))
        assert c.e_n == pytest.approx(2 * 8 * 100 / (9 * 1076))

    def test_decay_at_large_n(self):
        assert moment_coeffs(10**6).a_n < 1e-5

    def test_smallest_legal_n_is_finite(self):
        c = moment_coeffs(3)
        for v in (c.a_n, c.b_n, c.c_n, c.d_n, c.e_n):
            assert np.isfinite(v)

    def test_rejects_small_n(self):
        for factory in (moment_coeffs, unbiased_moment_coeffs):
            with pytest.raises(InvalidInputError):
                factory(2)

    def test_diag_coefficient_consistency(self):
        # the diagonal variance coefficient equals a_n + b_n in both sets
        for factory in (moment_coeffs, unbiased_moment_coeffs):
            for n in (3, 7, 20, 101):
                c = factory(n)
                assert c.c_n == pytest.approx(c.a_n + c.b_n, rel=1e-12)

    def test_unbiased_exact_fractions(self):
        n = 20
        c = unbiased_moment_coeffs(n)
        assert c.a_n == pytest.approx(float(Fraction(n**2 * (n - 3), (n - 1) ** 2 * (n - 2) * (n + 1))))
        assert c.d_n == pytest.approx(float(Fraction(2 * n**2, (n - 1) * (n - 2) * (n + 1))))
        assert c.e_n < 0.0


class TestMomentEstimators:
    def test_zero_inputs(self):
        c = moment_coeffs(10)
        assert var_hat_off(0.0, 0.0, 0.0, c) == 0.0
        assert var_hat_diag(0.0, c) == 0.0
        assert cov_hat_diag_pair(0.0, 0.0, 0.0, c) == 0.0

    def test_unit_inputs_expose_coefficient_sums(self):
        c = moment_coeffs(10)
        assert var_hat_off(1.0, 1.0, 1.0, c) == pytest.approx(c.a_n + c.b_n)
        assert var_hat_diag(2.0, c) == pytest.approx(4.0 * c.c_n)
        assert cov_hat_diag_pair(1.0, 1.0, 1.0, c) == pytest.approx(c.d_n + c.e_n)

    def test_negative_diagonal_rejected(self):
        c = moment_coeffs(10)
        with pytest.raises(InvalidInputError):
            var_hat_off(0.1, -1.0, 1.0, c)
        with pytest.raises(InvalidInputError):
            var_hat_diag(-0.5, c)

    def test_unbiasedness_against_brute_force_moments(self):
        # MC mean of each estimator within 3 standard errors of the exact
        # Wishart moments of the (n-1)-denominator sample covariance
        p, n, reps = 2, 40, 5000
        sigma0 = np.array([[1.0, 0.5], [0.5, 1.0]])
        root = np.linalg.cholesky(sigma0)
        rng = np.random.default_rng(11)
        c = unbiased_moment_coeffs(n)
        vals = np.empty((reps, 3))
        for r in range(reps):
            x = root @ rng.standard_normal((p, n))
            x -= x.mean(axis=1, keepdims=True)
            t = x @ x.T / n
            vals[r, 0] = var_hat_off(t[0, 1], t[0, 0], t[1, 1], c)
            vals[r, 1] = var_hat_diag(t[0, 0], c)
            vals[r, 2] = cov_hat_diag_pair(t[0, 1], t[0, 0], t[1, 1], c)
        truth = np.array(
            [
                (sigma0[0, 1] ** 2 + sigma0[0, 0] * sigma0[1, 1]) / (n - 1),
                2.0 * sigma0[0, 0] ** 2 / (n - 1),
                2.0 * sigma0[0, 1] ** 2 / (n - 1),
            ]
        )
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(mean - truth) <= 3.0 * se)

    def test_diag_covariance_against_empirical_covariance_oracle(self):
        # brute-force empirical cov of the diagonal entries over 20000 reps
        # agrees with the estimator's MC mean (sigma_il = 0.3)
        p, n = 2, 30
        sigma0 = np.array([[1.0, 0.3], [0.3, 1.0]])
        root = np.linalg.cholesky(sigma0)
        rng = np.random.default_rng(12)
        reps = 20_000
        z = rng.standard_normal((reps, p, n))
        x = np.einsum("ij,rjt->rit", root, z)
        x -= x.mean(axis=2, keepdims=True)
        s_hat = np.einsum("rit,rjt->rij", x, x) / (n - 1)
        d1 = s_hat[:, 0, 0] - s_hat[:, 0, 0].mean()
        d2 = s_hat[:, 1, 1] - s_hat[:, 1, 1].mean()
        emp_cov = float(np.cov(s_hat[:, 0, 0], s_hat[:, 1, 1])[0, 1])
        se_emp = float((d1 * d2).std(ddof=1) / np.sqrt(reps))
        c = unbiased_moment_coeffs(n)
        t = s_hat * (n - 1) / n
        est = cov_hat_diag_pair(t[:, 0, 1], t[:, 0, 0], t[:, 1, 1], c)
        se_est = float(est.std(ddof=1) / np.sqrt(reps))
        assert abs(float(est.mean()) - emp_cov) <= 3.0 * np.hypot(se_est, se_emp)


class TestSurePaths:
    def test_zero_data_gives_zero_curve(self):
        pair = cov_pair(DataMatrix.from_array(np.zeros((4, 10))))
        for k in (1, 2, 4):
            assert sure_direct(pair, k) == 0.0
            assert select_k(pair, [k]).sure_values[0] == 0.0

    def test_discrepancy_vanishes_at_full_dimension(self):
        rng = np.random.default_rng(13)
        pair = centered_pair(rng, 6, 25)
        curve = select_k(pair, [1, 3, 6])
        assert curve.discrepancy[-1] == 0.0
        assert sure_direct(pair, 6) == pytest.approx(2.0 * curve.optimism[-1])

    def test_paths_agree_on_random_inputs(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = int(rng.integers(2, 31))
            n = int(rng.integers(3, 101))
            pair = centered_pair(rng, p, n, scale=float(rng.uniform(0.5, 2.0)))
            k = int(rng.integers(1, p + 1))
            for coeffs in (None, moment_coeffs(n)):
                a = sure_direct(pair, k, coeffs)
                b = select_k(pair, [k], coeffs).sure_values[0]
                assert abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-12)

    def test_terms_scale_as_fourth_power_of_data_scale(self):
        # X -> cX multiplies every SURE term by c^4 (all terms are quadratic
        # in covariance entries); guards against convention mix-ups
        rng = np.random.default_rng(15)
        x = rng.standard_normal((8, 30))
        c = 2.0
        pair1 = cov_pair(center_columns(DataMatrix.from_array(x)))
        pair2 = cov_pair(center_columns(DataMatrix.from_array(c * x)))
        grid = [2, 5, 8]
        curve1 = select_k(pair1, grid)
        curve2 = select_k(pair2, grid)
        for term in ("discrepancy", "optimism"):
            np.testing.assert_allclose(
                getattr(curve2, term), c**4 * getattr(curve1, term), rtol=1e-12
            )
        np.testing.assert_allclose(curve2.sure_values, c**4 * curve1.sure_values, rtol=1e-12)

    def test_input_guards(self):
        rng = np.random.default_rng(16)
        pair = centered_pair(rng, 5, 20)
        tiny = cov_pair(center_columns(DataMatrix.from_array(rng.standard_normal((5, 2)))))
        scalar = cov_pair(center_columns(DataMatrix.from_array(rng.standard_normal((1, 20)))))
        for bad_pair, k in ((pair, 0), (pair, 6), (tiny, 2), (scalar, 1)):
            with pytest.raises(InvalidInputError):
                select_k(bad_pair, [k], moment_coeffs(20))
            with pytest.raises(InvalidInputError):
                select_k(bad_pair, [k])

    def test_curve_matches_entrywise_oracle_over_full_grid(self):
        # random p < n and p > n, both coefficient sets, every k in 1..p
        rng = np.random.default_rng(20)
        for p, n in random_shapes(rng) + [(2, 3)]:
            pair = centered_pair(rng, p, n, scale=float(rng.uniform(0.5, 2.0)))
            grid = np.arange(1, p + 1)
            for coeffs in (unbiased_moment_coeffs(n), moment_coeffs(n)):
                curve = select_k(pair, grid, coeffs)
                parts = np.array([sure_direct_parts(pair, int(k), coeffs) for k in grid])
                want = parts[:, 0] + 2.0 * parts[:, 1]
                np.testing.assert_allclose(curve.sure_values, want, rtol=1e-12)
                for i, term in enumerate(("discrepancy", "optimism")):
                    atol = 1e-12 * np.max(np.abs(want))
                    np.testing.assert_allclose(getattr(curve, term), parts[:, i], rtol=1e-12, atol=atol)
                assert curve.k_hat == int(grid[np.argmin(want)])

    def test_k_hat_invariant_to_permutation_and_scale(self):
        rng = np.random.default_rng(21)
        for p, n in random_shapes(rng):
            x = rng.standard_normal((p, n)) * rng.uniform(0.5, 2.0, size=(p, 1))
            grid = np.arange(1, p + 1)
            for coeffs in (unbiased_moment_coeffs(n), moment_coeffs(n)):
                pair = cov_pair(center_columns(DataMatrix.from_array(x)))
                k_hat = select_k(pair, grid, coeffs).k_hat
                for y in (x[rng.permutation(p)], float(rng.uniform(1e-3, 1e3)) * x):
                    pair = cov_pair(center_columns(DataMatrix.from_array(y)))
                    assert select_k(pair, grid, coeffs).k_hat == k_hat


class TestSelectK:
    def test_singleton_grid(self):
        rng = np.random.default_rng(17)
        pair = centered_pair(rng, 6, 30)
        assert select_k(pair, [6]).k_hat == 6

    def test_ties_break_to_smaller_k(self):
        pair = cov_pair(DataMatrix.from_array(np.zeros((5, 12))))
        curve = select_k(pair, [2, 3, 5])
        assert curve.k_hat == 2

    def test_grid_validation(self):
        rng = np.random.default_rng(18)
        pair = centered_pair(rng, 5, 20)
        with pytest.raises(InvalidInputError):
            select_k(pair, [])
        with pytest.raises(InvalidInputError):
            select_k(pair, [0, 3])
        with pytest.raises(InvalidInputError):
            select_k(pair, [3, 3])
        with pytest.raises(InvalidInputError):
            select_k(pair, [2, 6])

    def test_non_integral_grid_rejected_by_value(self):
        rng = np.random.default_rng(18)
        pair = centered_pair(rng, 5, 20)
        for grid, bad in (([2.5, 3.9], "2.5"), ([2.0, 2.5], "2.5"), ([3.0, 4.5], "4.5")):
            with pytest.raises(InvalidInputError, match=f"must be an integer, got k={bad}"):
                select_k(pair, grid)
        floats = select_k(pair, [2.0, 3.0, 5.0])
        assert floats.k_grid.dtype == np.int64
        np.testing.assert_array_equal(floats.sure_values, select_k(pair, [2, 3, 5]).sure_values)

    def test_default_grid_shape(self):
        grid = default_k_grid(250)
        assert grid[0] == 10 and grid[-1] == 250 and np.all(np.diff(grid) == 10)
        assert default_k_grid(7, 10).tolist() == [7]
        assert default_k_grid(23, 10).tolist() == [10, 20, 23]
        # explicit bounds: the top is kept when it is off the step
        assert default_k_grid(100, 10, hi=95).tolist() == [*range(10, 91, 10), 95]
        assert default_k_grid(10, 3, lo=3, hi=9).tolist() == [3, 6, 9]
        assert default_k_grid(10, 4, lo=2).tolist() == [2, 6, 10]
        for lo, hi in ((0, 5), (6, 5), (2, 11)):
            with pytest.raises(InvalidInputError):
                default_k_grid(10, 1, lo=lo, hi=hi)

    def test_coarse_and_fine_grids_agree_at_desk_scale(self):
        # step-1 and step-10 argmins within one coarse step across the
        # benchmark-style configurations, shrunk to desk size
        p, n = 60, 50
        fails = []
        for setting in (1, 2):
            for ktr in (4, 12):
                for s in (0.1, 0.5):
                    cfg = SimConfig(
                        setting=setting, n=n, p=p, ktr=ktr, s=s,
                        replicates=1, seed=RngSeed(1234, setting * 100 + ktr),
                    )
                    sigma0 = make_sigma0(cfg, 0)
                    from cdcov import draw_data

                    x = center_columns(draw_data(sigma0, n, cfg.seed.generator(0, 1)))
                    pair = cov_pair(x)
                    fine = select_k(pair, np.arange(1, p + 1)).k_hat
                    coarse = select_k(pair, default_k_grid(p, 10)).k_hat
                    if abs(fine - coarse) > 10:
                        fails.append((setting, ktr, s, fine, coarse))
        assert not fails


class TestRiskOracle:
    def test_risk_curve_matches_entrywise_sums(self):
        # the inner products read by vdot against the p x p products summed
        # with np.sum, at p < n and p > n
        rng = np.random.default_rng(23)
        for p, n in random_shapes(rng):
            pair = centered_pair(rng, p, n)
            a = rng.standard_normal((p, p))
            sigma0 = SymMat.from_array(a @ a.T / p + np.eye(p))
            grid = np.arange(1, p + 1)
            s, s0 = pair.mle.values, sigma0.values
            expected = []
            for k in grid:
                eta, gamma = cd_coeff_grid(p, int(k))
                gt = gamma * np.trace(s)
                expected.append(
                    eta**2 * np.sum(s * s)
                    - 2.0 * eta * np.sum(s * s0)
                    + np.sum(s0 * s0)
                    + 2.0 * gt * (eta * np.trace(s) - np.trace(s0))
                    + p * gt**2
                )
            got = cd_risk_curve(pair.mle, sigma0, grid)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_identity_truth_full_dimension_matches_wishart_value(self):
        # at k = p the mle-convention risk is E||S_mle - I||_F^2,
        # with exact value ((n-1) p (p+1) + p) / n^2 for identity truth
        p, n, reps = 10, 50, 4000
        sigma0 = SymMat.from_array(np.eye(p))
        curve = risk_oracle(sigma0, n, [p], reps, RngSeed(2718))
        exact = ((n - 1) * p * (p + 1) + p) / n**2
        rel_se = np.sqrt(2.0 / reps)  # crude MC relative error bound
        assert curve.risk_values[0] == pytest.approx(exact, rel=4 * rel_se)

    def test_one_point_grid_is_the_running_sum_of_the_draws(self):
        # the mean is a running sum in replicate order divided by reps;
        # np.mean sums a one-point grid pairwise and differs here in the last bit
        sigma0 = SymMat.from_array(np.diag([1.0, 2.0, 3.0]))
        n, reps, seed = 10, 16, RngSeed(1)
        curves = [
            cd_risk_curve(cov_pair(center_columns(draw_data(sigma0, n, seed.generator(rep)))).mle, sigma0, [2])
            for rep in range(reps)
        ]
        total = np.zeros(1)
        for curve in curves:
            total += curve
        assert np.mean(curves, axis=0)[0] != (total / reps)[0]
        assert risk_oracle(sigma0, n, [2], reps, seed).risk_values.tobytes() == (total / reps).tobytes()

    def test_determinism(self):
        sigma0 = SymMat.from_array(np.diag([1.0, 2.0, 3.0]))
        a = risk_oracle(sigma0, 20, [1, 2, 3], 5, RngSeed(5))
        b = risk_oracle(sigma0, 20, [1, 2, 3], 5, RngSeed(5))
        np.testing.assert_array_equal(a.risk_values, b.risk_values)
        assert a.k_opt == b.k_opt

    def test_rejects_indefinite_truth(self):
        bad = SymMat.from_array(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidInputError):
            risk_oracle(bad, 10, [1, 2], 3, RngSeed(0))

    @pytest.mark.parametrize(
        "eigenvalues, accepted",
        [([2.0, 1.0, -5e-9], True), ([2.0, 1.0, -5e-8], False), ([-1.0, -2.0, -3.0], False)],
        ids=["just inside the tolerance", "just outside it", "negative top eigenvalue"],
    )
    def test_accepts_and_rejects_the_same_truth_as_draw_data(self, eigenvalues, accepted):
        # one PSD check, at one tolerance, serves both paths that draw from a truth
        sigma0 = SymMat.from_array(np.diag(eigenvalues))
        for call in (
            lambda: draw_data(sigma0, 5, RngSeed(1)),
            lambda: risk_oracle(sigma0, 5, [1, 2, 3], 2, RngSeed(1)),
        ):
            if accepted:
                call()
            else:
                with pytest.raises(InvalidInputError, match="positive semidefinite"):
                    call()

    def test_factors_sigma0_once_per_call(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        sigma0 = SymMat.from_array(np.diag([1.0, 2.0, 3.0, 4.0]))
        risk_oracle(sigma0, 20, [1, 2, 4], 7, RngSeed(5))
        assert calls == [(4, 4)]

    def test_rejects_zero_replicates(self):
        sigma0 = SymMat.from_array(np.eye(3))
        with pytest.raises(InvalidInputError):
            risk_oracle(sigma0, 10, [1], 0, RngSeed(0))


class TestOffsetDiagnostic:
    def test_matches_manual_sum(self):
        rng = np.random.default_rng(19)
        pair = centered_pair(rng, 4, 15)
        c = unbiased_moment_coeffs(15)
        t = pair.mle.values
        manual = 0.0
        for i in range(4):
            for j in range(4):
                if i == j:
                    manual += var_hat_diag(t[i, i], c)
                else:
                    manual += var_hat_off(t[i, j], t[i, i], t[j, j], c)
        for grid in ([1], [2, 3], [4], [1, 2, 3, 4]):
            assert select_k(pair, grid).offset_estimate == pytest.approx(manual, rel=1e-12)
