import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from cdcov import (
    CovPair,
    DataMatrix,
    InvalidInputError,
    NumericalError,
    RngSeed,
    SymMat,
    center_columns,
    cov_pair,
    frob_norm,
    load_data_matrix,
    load_sym_mat,
    op_norm,
    save_sym_mat,
)
from cdcov.matrices import fmt_float


def dm(a):
    return DataMatrix.from_array(np.asarray(a, dtype=float))


def sm(a):
    return SymMat.from_array(np.asarray(a, dtype=float))


class TestCenterColumns:
    def test_mean_zero_rows_are_a_fixed_point(self):
        x = dm([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]])
        out = center_columns(x)
        np.testing.assert_array_equal(out.values, x.values)

    def test_single_variable_two_observations(self):
        out = center_columns(dm([[1.0, 3.0]]))
        np.testing.assert_allclose(out.values, [[-1.0, 1.0]])

    def test_row_means_vanish_on_random_input(self):
        rng = np.random.default_rng(0)
        out = center_columns(dm(rng.standard_normal((3, 5)) + 7.0))
        assert np.max(np.abs(out.values.mean(axis=1))) < 1e-12

    def test_rejects_single_observation(self):
        with pytest.raises(InvalidInputError):
            center_columns(dm([[1.0], [2.0]]))


class TestCovPair:
    def test_hand_expanded_two_point_sample(self):
        pair = cov_pair(dm([[1.0, -1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(pair.mle.values, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(pair.unbiased.values, [[2.0, 0.0], [0.0, 0.0]])

    def test_unbiased_is_rescale_of_mle_up_to_rounding(self):
        rng = np.random.default_rng(1)
        x = center_columns(dm(rng.standard_normal((6, 17))))
        pair = cov_pair(x)
        np.testing.assert_allclose(
            pair.unbiased.values, pair.mle.values * (pair.n / (pair.n - 1)), rtol=1e-15
        )

    def test_monte_carlo_consistency_against_known_truth(self):
        # n=500 from diag(1, 4): every entry within 3 MC standard errors.
        rng = np.random.default_rng(2)
        root = np.diag([1.0, 2.0])
        x = center_columns(dm(root @ rng.standard_normal((2, 500))))
        pair = cov_pair(x)
        truth = np.diag([1.0, 4.0])
        n = 500
        se = np.sqrt((truth**2 + np.outer(np.diag(truth), np.diag(truth))) / n)
        assert np.all(np.abs(pair.mle.values - truth) <= 3 * se)

    def test_mle_is_psd_over_many_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = int(rng.integers(1, 6))
            n = int(rng.integers(2, 8))
            pair = cov_pair(center_columns(dm(rng.standard_normal((p, n)))))
            w = np.linalg.eigvalsh(pair.mle.values)
            assert w[0] >= -1e-10 * max(pair.mle.trace(), 1.0)

    def test_rejects_uncentered_data(self):
        with pytest.raises(InvalidInputError):
            cov_pair(dm([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_data_counts_as_centered(self):
        pair = cov_pair(dm(np.zeros((3, 4))))
        assert frob_norm(pair.mle) == 0.0


class TestNorms:
    def test_frobenius_trivia(self):
        assert frob_norm(sm(np.eye(3))) == pytest.approx(np.sqrt(3.0))
        assert frob_norm(sm(np.zeros((4, 4)))) == 0.0
        assert frob_norm(sm([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(5.0)

    def test_operator_norm_trivia(self):
        assert op_norm(sm(np.diag([3.0, 1.0]))) == pytest.approx(3.0)
        assert op_norm(sm(np.eye(7))) == pytest.approx(1.0)

    def test_operator_norm_matches_singular_value_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 10))
        s = sm(a + a.T)
        oracle = float(np.linalg.svd(s.values, compute_uv=False)[0])
        assert op_norm(s, tol=1e-8) == pytest.approx(oracle, rel=1e-8)

    def test_operator_bounded_by_frobenius(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal((6, 6))
            s = sm(a + a.T)
            assert op_norm(s) <= frob_norm(s) + 1e-12

    def test_operator_norm_rejects_bad_tolerance(self):
        with pytest.raises(InvalidInputError):
            op_norm(sm(np.eye(2)), tol=0.0)


def _eigvalsh_fails(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


class TestOpNormPowerIteration:
    """op_norm falls back to power iteration when the eigensolver fails."""

    def test_converges_to_the_eigensolver_value(self, monkeypatch):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = sm((q * [-5.0, 2.0, 1.0, -1.0, 0.5, 0.1]) @ q.T)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(s.values))))
        _eigvalsh_fails(monkeypatch)
        assert op_norm(s) == pytest.approx(exact, rel=1e-6)
        assert op_norm(sm(np.zeros((3, 3)))) == 0.0

    def test_no_convergence_raises_with_best_iterate(self, monkeypatch):
        # eigenvalues 1 and -(1 - 1e-4): every step still moves the estimate
        # by far more than the tolerance, so 10000 steps do not converge
        s = sm(np.diag([1.0, -(1.0 - 1e-4)]))
        _eigvalsh_fails(monkeypatch)
        with pytest.raises(NumericalError) as info:
            op_norm(s, tol=1e-15)
        assert 1.0 - 1e-4 <= info.value.best <= 1.0


class TestSymMatValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            SymMat.from_array(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SymMat.from_array(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            SymMat.from_array(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructors_reject_nonfinite(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            SymMat(np.array([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(InvalidInputError, match="finite"):
            DataMatrix(np.array([[1.0, bad, 0.0]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_cov_pair_overflow_is_named(self):
        # finite data whose X X^T overflows to inf
        x = dm([[1e200, -1e200], [-1e200, 1e200]])
        with pytest.raises(InvalidInputError, match="finite"):
            cov_pair(x)

    def test_small_asymmetry_is_symmetrized_exactly(self):
        a = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        s = SymMat.from_array(a)
        np.testing.assert_array_equal(s.values, s.values.T)


class TestRng:
    def test_same_seed_same_draws(self):
        a = RngSeed(42, 7).generator(3).standard_normal(10)
        b = RngSeed(42, 7).generator(3).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_independent(self):
        a = RngSeed(42, 7).generator(0).standard_normal(10)
        b = RngSeed(42, 8).generator(0).standard_normal(10)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            RngSeed(-1)
        with pytest.raises(InvalidInputError):
            RngSeed(2**64)

    def test_bit_identical_across_processes(self):
        code = (
            "from cdcov import RngSeed; import numpy as np;"
            "print(RngSeed(123, 5).generator(2).standard_normal(8).tobytes().hex())"
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        local = RngSeed(123, 5).generator(2).standard_normal(8).tobytes().hex()
        assert outs[0].strip() == local


class TestCsvRoundTrips:
    def test_data_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 9))
        path = tmp_path / "data.csv"
        with open(path, "w") as f:
            for row in x:
                f.write(",".join(format(v, ".17g") for v in row) + "\n")
        loaded = load_data_matrix(path)
        np.testing.assert_array_equal(loaded.values, x)

    def test_header_flag_skips_first_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v1,v2\n1.0,2.0\n3.0,4.0\n")
        loaded = load_data_matrix(path, header=True)
        assert loaded.p == 2 and loaded.n == 2

    def test_sym_mat_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5))
        s = sm(a + a.T)
        path = tmp_path / "mat.csv"
        save_sym_mat(s, path)
        np.testing.assert_array_equal(load_sym_mat(path).values, s.values)

    def test_sym_mat_bytes_match_csv_writer(self, tmp_path):
        # the writer's output equals csv.writer rows of fmt_float fields
        vals = [-0.0, 5e-324, 1e300, -1e-300, 3.0, -7.0, 0.1, 2.0**60]
        a = np.zeros((len(vals), len(vals)))
        for i, v in enumerate(vals):
            a[i, :] = a[:, i] = v
        a[0, 0] = -0.0
        s = sm(a)
        path = tmp_path / "mat.csv"
        save_sym_mat(s, path)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for row in s.values:
            writer.writerow([fmt_float(v) for v in row])
        assert path.read_bytes() == buf.getvalue().encode()
        head = b"-0,4.9406564584124654e-324,1.0000000000000001e+300,-1e-300,3,-7,"
        assert path.read_bytes().startswith(head)
        np.testing.assert_array_equal(load_sym_mat(path).values, s.values)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InvalidInputError):
            load_data_matrix(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops\n")
        with pytest.raises(InvalidInputError):
            load_data_matrix(path)
