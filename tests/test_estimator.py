import tracemalloc

import numpy as np
import pytest

from cdcov import (
    CdEstimate,
    DataMatrix,
    InvalidInputError,
    SymMat,
    cd_estimate,
    cov_pair,
    save_sym_mat,
)
from cdcov.estimator import cd_coeff_grid
from cdcov.matrices import _row_blocks


def random_psd(rng, p, ridge=0.5):
    a = rng.standard_normal((p, p))
    return SymMat.from_array(a @ a.T / p + ridge * np.eye(p))


def shrinkage_compare(s: SymMat, k: int, a: float | None = None) -> tuple[SymMat, SymMat]:
    """CD estimate next to a plain identity-target shrinker a*S + (1-a)*I.

    With ``a`` unset, the identity-target weight is matched to the CD
    coefficients (a = eta / (eta + gamma * Tr(S) / p)) so both estimators
    spend a comparable shrinkage budget; the difference is then purely the
    trace-scaled versus bare identity target.
    """
    eta, gamma = cd_coeff_grid(s.dim, k)
    cd = cd_estimate(s, k)
    if a is None:
        denom = eta + gamma * s.trace() / s.dim
        a = eta / denom if denom > 0.0 else 1.0
    if not 0.0 <= a <= 1.0:
        raise InvalidInputError(f"mixing weight must lie in [0, 1], got a={a}")
    plain = a * s.values + (1.0 - a) * np.eye(s.dim)
    return cd, SymMat.from_array(plain)


class TestCoeffs:
    def test_full_dimension_is_identity_map(self):
        for p in (2, 5, 31):
            eta, gamma = cd_coeff_grid(p, p)
            assert eta == 1.0
            assert gamma == 0.0

    def test_smallest_case(self):
        eta, gamma = cd_coeff_grid(2, 1)
        assert eta == pytest.approx(1.0 / 6.0)
        assert gamma == pytest.approx(1.0 / 6.0)

    def test_three_by_three(self):
        eta, gamma = cd_coeff_grid(3, 2)
        assert eta == pytest.approx(10.0 / 24.0)
        assert gamma == pytest.approx(2.0 / 24.0)

    def test_ranges_and_monotonicity(self):
        for p in range(2, 101):
            etas = [cd_coeff_grid(p, k)[0] for k in range(1, p + 1)]
            gammas = [cd_coeff_grid(p, k)[1] for k in range(1, p + 1)]
            assert all(0.0 < e <= 1.0 for e in etas)
            assert all(g >= 0.0 for g in gammas)
            assert all(b >= a for a, b in zip(etas, etas[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            cd_coeff_grid(1, 1)
        with pytest.raises(InvalidInputError):
            cd_coeff_grid(5, 0)
        with pytest.raises(InvalidInputError):
            cd_coeff_grid(5, 6)
        for k in (np.array([1, 2, 5], dtype=object), [1, 2**70], "3", None):
            with pytest.raises(InvalidInputError, match="must be numeric"):
                cd_coeff_grid(5, k)
        with pytest.raises(InvalidInputError, match="k grid must be rectangular"):
            cd_coeff_grid(5, [[1, 2], [3]])

    @pytest.mark.parametrize(
        "p, k, bad", [(200, np.arange(0, 201, 10), 0), (5, [1, 7, 9], 7), (5, 6, 6)], ids=["k=0 first", "k>p", "scalar"]
    )
    def test_range_error_names_the_first_k_at_fault(self, p, k, bad):
        # the whole k array was printed, over two lines for a 21-point grid
        with pytest.raises(InvalidInputError) as info:
            cd_coeff_grid(p, k)
        assert str(info.value) == f"compressed dimension must satisfy 1 <= k <= p={p}, got k={bad}"

    def test_non_integral_k_rejected_by_value(self):
        s = SymMat.from_array(np.eye(5))
        for k in (2.9, 2.5, float("nan")):
            with pytest.raises(InvalidInputError, match=f"must be an integer, got k={k}"):
                cd_estimate(s, k)
        # an integral float is the same k; an int k keeps plain Python floats
        np.testing.assert_array_equal(cd_estimate(s, 3.0).values, cd_estimate(s, 3).values)
        for k in (3, np.int64(3), 3.0):
            assert [type(c) for c in cd_coeff_grid(5, k)] == [float, float]


class TestEstimate:
    def test_k_equals_p_returns_input_exactly(self):
        rng = np.random.default_rng(0)
        s = random_psd(rng, 7)
        np.testing.assert_array_equal(cd_estimate(s, 7).values, s.values)

    def test_signed_zeros_become_zero(self):
        # as when a dense gamma Tr(S) I was added: -0.0 entries come out as 0.0
        s = SymMat.from_array(np.array([[1.0, -0.0], [-0.0, 0.0]]))
        for k in (1, 2):
            out = cd_estimate(s, k).values
            assert not np.any((out == 0.0) & np.signbit(out))

    def test_identity_input_small_case(self):
        out = cd_estimate(SymMat.from_array(np.eye(2)), 1)
        np.testing.assert_allclose(out.values, 0.5 * np.eye(2))

    def test_eigenvectors_preserved_eigenvalues_mapped(self):
        rng = np.random.default_rng(1)
        s = random_psd(rng, 12)
        k = 5
        eta, gamma = cd_coeff_grid(12, k)
        w, v = np.linalg.eigh(s.values)
        out = cd_estimate(s, k)
        w_out = np.linalg.eigvalsh(out.values)
        expected = np.sort(eta * w + gamma * s.trace())
        np.testing.assert_allclose(w_out, expected, rtol=1e-10)
        # same eigenvectors: the estimate is diagonal in s's eigenbasis
        diag = v.T @ out.values @ v
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(diag))

    def test_strictly_positive_definite_below_full_dimension(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((9, 3))
        s = SymMat.from_array(a @ a.T)  # rank deficient
        for k in (1, 4, 8):
            gamma = cd_coeff_grid(9, k)[1]
            w = np.linalg.eigvalsh(cd_estimate(s, k).values)
            assert w[0] >= gamma * s.trace() - 1e-12 * s.trace()
            assert w[0] > 0.0

    @pytest.mark.parametrize("p,n", [(8, 30), (25, 6)], ids=["p<n", "p>n"])
    def test_psd_sample_covariance_gives_psd_estimate_at_every_k(self, p, n):
        rng = np.random.default_rng(4 + p)
        for _ in range(5):
            x = rng.standard_normal((p, n)) * rng.uniform(0.1, 10.0, (p, 1))
            s = cov_pair(DataMatrix.from_array(x)).mle
            for k in range(1, p + 1):
                w = np.linalg.eigvalsh(cd_estimate(s, k).values)
                assert w[0] >= -1e-12 * w[-1], (k, w[0], w[-1])

    def test_linearity(self):
        rng = np.random.default_rng(3)
        s1 = random_psd(rng, 6)
        s2 = random_psd(rng, 6)
        combo = SymMat.from_array(2.0 * s1.values + 3.0 * s2.values)
        lhs = cd_estimate(combo, 4).values
        rhs = 2.0 * cd_estimate(s1, 4).values + 3.0 * cd_estimate(s2, 4).values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_invalid_k(self):
        s = SymMat.from_array(np.eye(3))
        with pytest.raises(InvalidInputError):
            cd_estimate(s, 0)
        with pytest.raises(InvalidInputError):
            cd_estimate(s, 4)


def factor_pair(seed, p, n, factors=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((p, factors)) @ rng.standard_normal((factors, n)) + rng.standard_normal((p, n))
    return cov_pair(DataMatrix.from_array(x))


class TestCdEstimate:
    @pytest.mark.parametrize("p, n", [(9, 3), (90, 30), (91, 30), (300, 40), (40, 300)])
    def test_rows_equal_values_on_the_writer_blocks(self, p, n):
        est = CdEstimate(factor_pair(1, p, n).x, max(1, p // 3))
        for start, stop in _row_blocks(p):
            assert est.rows(start, stop).tobytes() == est.values[start:stop].tobytes()

    def test_values_are_read_only_and_kept(self):
        est = CdEstimate(factor_pair(2, 20, 10).x, 5)
        assert est.values is est.values
        assert not est.values.flags.writeable
        assert (est.dim, est.k) == (20, 5)

    @pytest.mark.parametrize("p, n", [(2, 5), (9, 3), (40, 300), (65, 20), (90, 30)])
    def test_equals_cd_estimate_bytes_at_p_le_90(self, p, n):
        # one writer block, and one syrk, covers all of X X^T
        pair = factor_pair(3, p, n)
        for k in sorted({1, max(1, p // 3), p - 1, p} - {0}):
            assert CdEstimate(pair.x, k).values.tobytes() == cd_estimate(pair.mle, k).values.tobytes(), k

    @pytest.mark.parametrize("p, n", [(91, 30), (250, 100), (300, 40), (513, 129), (100, 250)])
    def test_within_ulps_of_cd_estimate_above_90(self, p, n):
        # a writer block's gemm can differ from syrk's full X X^T in the last bit; on
        # factor data at seeds 200-259 (p in [91, 700), n in [2, 300)) the gap was at
        # most 4.5 ulps of the largest |entry|, and 0.75 on Gaussian data at seeds 100-139
        pair = factor_pair(31, p, n)
        for k in (1, p // 3, p):
            dense = cd_estimate(pair.mle, k).values
            gap = np.abs(CdEstimate(pair.x, k).values - dense).max()
            assert gap <= 16 * np.spacing(np.abs(dense).max()), k

    def test_rejects_a_bad_k(self):
        x = factor_pair(4, 10, 5).x
        for k in (0, 11, 2.5):
            with pytest.raises(InvalidInputError):
                CdEstimate(x, k)

    def test_trace_overflow_is_named(self):
        # each S_ii = 0.45e308 is finite, their sum is not: a named error, with no warning
        a = np.sqrt(0.45e308)
        pair = cov_pair(DataMatrix.from_array(np.tile([a, -a], (4, 1))))
        with pytest.raises(InvalidInputError, match="trace of the sample covariance overflows"):
            CdEstimate(pair.x, 2)
        with pytest.raises(InvalidInputError, match="trace of the sample covariance overflows"):
            cd_estimate(pair.mle, 2)

    def test_writer_bytes_equal_the_dense_values(self, tmp_path):
        est = CdEstimate(factor_pair(5, 300, 40).x, 100)
        save_sym_mat(est, tmp_path / "factor.csv")
        save_sym_mat(SymMat(est.values), tmp_path / "dense.csv")
        assert (tmp_path / "factor.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()

    def test_writer_holds_no_p_by_p_matrix(self, tmp_path):
        # the 2 MiB bound of the SymMat writer's test; the dense estimate would take 8 MB
        est = CdEstimate(factor_pair(6, 1000, 100).x, 300)
        tracemalloc.start()
        try:
            save_sym_mat(est, tmp_path / "est.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
        assert "values" not in vars(est)


class TestShrinkageCompare:
    def test_identity_input_gives_scaled_identities(self):
        s = SymMat.from_array(np.eye(5))
        cd, plain = shrinkage_compare(s, 2)
        for est in (cd, plain):
            diag = np.diag(est.values)
            assert np.allclose(est.values, diag[0] * np.eye(5))
            assert diag[0] > 0.0

    def test_full_dimension_cd_branch_is_input(self):
        rng = np.random.default_rng(4)
        s = random_psd(rng, 6)
        cd, _ = shrinkage_compare(s, 6)
        np.testing.assert_array_equal(cd.values, s.values)

    def test_invalid_weight(self):
        s = SymMat.from_array(np.eye(3))
        with pytest.raises(InvalidInputError):
            shrinkage_compare(s, 2, a=1.5)

    def test_trace_target_preserves_top_eigenvalue_better(self):
        # at equal shrink weight a = eta, the trace-scaled compensation
        # gamma Tr(S) I should track the top eigenvalue of a factor-model
        # truth better than the bare identity (1 - a) I on a clear majority
        # of replicates
        rng = np.random.default_rng(5)
        p, ktr, n = 60, 5, 40
        k = 48
        eta = cd_coeff_grid(p, k)[0]
        wins = 0
        reps = 100
        for _ in range(reps):
            lam = rng.standard_normal((p, ktr))
            lam.ravel()[rng.choice(p * ktr, size=(p * ktr) // 2, replace=False)] = 0.0
            sigma0 = lam @ lam.T + np.eye(p)
            top_true = float(np.linalg.eigvalsh(sigma0)[-1])
            root = np.linalg.cholesky(sigma0 + 1e-10 * np.eye(p))
            x = root @ rng.standard_normal((p, n))
            x -= x.mean(axis=1, keepdims=True)
            s = SymMat.from_array(x @ x.T / n)
            cd, plain = shrinkage_compare(s, k, a=eta)
            err_cd = abs(float(np.linalg.eigvalsh(cd.values)[-1]) - top_true) / top_true
            err_plain = abs(float(np.linalg.eigvalsh(plain.values)[-1]) - top_true) / top_true
            wins += err_cd <= err_plain
        assert wins >= 0.8 * reps
