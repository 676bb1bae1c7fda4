import csv
import io
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cdcov import matrices
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

    def test_overflowing_row_mean_is_named(self):
        # every entry is finite; the first row's sum overflows float64
        x = DataMatrix.from_array([[1e308, 1e308, 1.7e308], [0.0, 1.0, 2.0]])
        with pytest.raises(InvalidInputError, match="variable 0 .*overflows float64"):
            center_columns(x)
        with pytest.raises(InvalidInputError, match="variable 0 .*overflows float64"):
            cov_pair(x)


class TestCovPair:
    def test_hand_expanded_two_point_sample(self):
        pair = cov_pair(dm([[1.0, -1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(pair.mle.values, [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(pair.unbiased.values, [[2.0, 0.0], [0.0, 0.0]])

    def test_unbiased_is_rescale_of_mle_up_to_rounding(self):
        rng = np.random.default_rng(1)
        pair = cov_pair(dm(rng.standard_normal((6, 17))))
        np.testing.assert_allclose(
            pair.unbiased.values, pair.mle.values * (pair.n / (pair.n - 1)), rtol=1e-15
        )

    def test_monte_carlo_consistency_against_known_truth(self):
        # n=500 from diag(1, 4): every entry within 3 MC standard errors.
        rng = np.random.default_rng(2)
        root = np.diag([1.0, 2.0])
        pair = cov_pair(dm(root @ rng.standard_normal((2, 500))))
        truth = np.diag([1.0, 4.0])
        n = 500
        se = np.sqrt((truth**2 + np.outer(np.diag(truth), np.diag(truth))) / n)
        assert np.all(np.abs(pair.mle.values - truth) <= 3 * se)

    def test_mle_is_psd_over_many_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = int(rng.integers(1, 6))
            n = int(rng.integers(2, 8))
            pair = cov_pair(dm(rng.standard_normal((p, n))))
            w = np.linalg.eigvalsh(pair.mle.values)
            assert w[0] >= -1e-10 * max(pair.mle.trace(), 1.0)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[-0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]],
            [[0.0, -0.0, 0.0], [1.0, -0.5, -0.5]],
            [[-0.0, 0.0, -0.0], [0.0, 0.0, 0.0]],
            [[-9.0, 4.5, 4.5], [0.5, -0.25, -0.25]],
            [[-9.0, 4.5, 4.5 + 1e-9], [0.0, 0.0, 0.0]],
            [[-9.0, 4.5, 4.5 + 1e-7], [0.0, 0.0, 0.0]],
            [[-3.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
            np.random.default_rng(4).standard_normal((5, 8)) + 3.0,
        ],
        ids=["zeros", "neg-zeros", "mixed-zeros", "neg-zero-row", "neg-extreme",
             "neg-extreme-in-tol", "neg-extreme-off-tol", "neg-extreme-off", "shifted-normal"],
    )
    def test_centers_its_input_with_center_columns(self, rows):
        # bit for bit, signed zeros included: the sign of a zero steers eigh
        x = dm(rows)
        pair = cov_pair(x)
        want = center_columns(x).values
        np.testing.assert_array_equal(pair.x.values, want)
        np.testing.assert_array_equal(np.signbit(pair.x.values), np.signbit(want))
        assert not pair.x.values.flags.writeable

    def test_uncentered_row_beside_a_larger_scale_is_centered(self):
        # a constant row next to a row of scale 1e10: its mean is far below
        # any tolerance relative to the largest entry, yet its variance is 0
        x = dm([[1e10, -1e10, 1e10, -1e10], [1.0, 1.0, 1.0, 1.0], [2.0, 3.0, 4.0, 5.0]])
        np.testing.assert_array_equal(np.diag(cov_pair(x).mle.values), [1e20, 0.0, 1.25])

    def test_rejects_single_observation(self):
        with pytest.raises(InvalidInputError, match="at least 2 observations"):
            cov_pair(dm([[1.0], [2.0]]))

    def test_mle_is_built_on_first_access_and_kept(self):
        pair = cov_pair(dm(np.random.default_rng(3).standard_normal((5, 8))))
        assert "mle" not in vars(pair)
        first = pair.mle
        assert pair.mle is first
        x = pair.x
        np.testing.assert_array_equal(first.values, x.values @ x.values.T / x.n)

    def test_zero_data_counts_as_centered(self):
        pair = cov_pair(dm(np.zeros((3, 4))))
        assert frob_norm(pair.mle) == 0.0


class TestNorms:
    def test_frobenius_trivia(self):
        assert frob_norm(sm(np.eye(3))) == pytest.approx(np.sqrt(3.0))
        assert frob_norm(sm(np.zeros((4, 4)))) == 0.0
        assert frob_norm(sm([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(5.0)

    def test_frobenius_agrees_with_the_sum_of_squares(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((300, 300))
        for values in (a + a.T, np.asfortranarray(a + a.T)):
            want = float(np.sqrt(np.sum(values**2)))
            assert abs(frob_norm(SymMat(values)) - want) <= 1e-15 * want

    def test_frobenius_builds_no_p_by_p_temporary(self):
        p = 1000
        a = np.random.default_rng(13).standard_normal((p, p))
        s = sm(a + a.T)
        tracemalloc.start()
        try:
            frob_norm(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * p * p / 100

    def test_operator_norm_trivia(self):
        assert op_norm(sm(np.diag([3.0, 1.0]))) == pytest.approx(3.0)
        assert op_norm(sm(np.eye(7))) == pytest.approx(1.0)

    def test_operator_norm_matches_singular_value_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 10))
        s = sm(a + a.T)
        oracle = float(np.linalg.svd(s.values, compute_uv=False)[0])
        assert op_norm(s) == pytest.approx(oracle, rel=1e-8)

    def test_operator_bounded_by_frobenius(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal((6, 6))
            s = sm(a + a.T)
            assert op_norm(s) <= frob_norm(s) + 1e-12


def test_op_norm_eigensolve_failure_is_a_numerical_error(monkeypatch):
    lapack = np.linalg.LinAlgError("Eigenvalues did not converge")

    def fail(a):
        raise lapack

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalError, match="did not converge") as info:
        op_norm(sm(np.eye(3)))
    assert info.value.__cause__ is lapack


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

    @pytest.mark.parametrize(
        "text, header",
        [
            # Excel's "CSV UTF-8" export starts the file with a byte-order mark
            ("\ufeff1.0,2.0\n3.0,4.0\n", False),
            ("\nv1,v2\n1.0,2.0\n\n3.0,4.0\n", True),
        ],
        ids=["bom", "blank-lines-around-the-header"],
    )
    def test_bom_and_blank_lines_are_not_data(self, tmp_path, text, header):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        np.testing.assert_array_equal(load_data_matrix(path, header=header).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_value_names_its_physical_line(self, tmp_path):
        # the quoted "3\n" spans lines 2 and 3, so the bad row is on line 4, not record 3
        path = tmp_path / "data.csv"
        path.write_text('1,2\n"3\n",4\n5,x\n', encoding="utf-8")
        with pytest.raises(InvalidInputError, match="non-numeric value on line 4: "):
            load_data_matrix(path)

    @pytest.mark.parametrize(
        "field", ["abc", "", "0x10", "1,5", " 2 ", "1_000", "\u0661\u0662", "+.5", "nan", "-inf", "1e400"]
    )
    def test_field_reads_as_float_reads_it(self, tmp_path, field):
        # each field converts as float() converts it: to the same value, or with the same message
        path = tmp_path / "data.csv"
        path.write_text(f'1,"{field}"\n', encoding="utf-8")
        try:
            want = float(field)
        except ValueError as exc:
            with pytest.raises(InvalidInputError, match=re.escape(f"non-numeric value on line 1: {exc}")):
                load_data_matrix(path)
            return
        if not np.isfinite(want):
            with pytest.raises(InvalidInputError, match="data entries must be finite"):
                load_data_matrix(path)
            return
        assert load_data_matrix(path).values.tolist() == [[1.0, want]]

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

    @pytest.mark.parametrize("block", [matrices._BLOCK_FIELDS, 1000])
    def test_sym_mat_bytes_do_not_depend_on_the_block(self, tmp_path, monkeypatch, block):
        # p = 300 rows straddle both block sizes; the entries mix fields the
        # digit kernel places with fields that fall back to fmt_float
        rng = np.random.default_rng(10)
        a = rng.standard_normal((300, 300)) * 10.0 ** rng.integers(-8, 20, (300, 300))
        a[rng.random((300, 300)) < 0.1] = 0.0
        s = sm(a + a.T)
        monkeypatch.setattr(matrices, "_BLOCK_FIELDS", block)
        path = tmp_path / "mat.csv"
        save_sym_mat(s, path)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        for row in s.values:
            writer.writerow([fmt_float(v) for v in row])
        assert path.read_bytes() == buf.getvalue().encode()
        save_sym_mat(SymMat(np.asfortranarray(s.values)), path)
        assert path.read_bytes() == buf.getvalue().encode()

    def test_sym_mat_writer_memory_is_bounded(self, tmp_path):
        # the writer holds one block of fields at a time, not the 19.7 MB file
        # nor an 8 MB copy of the matrix, in C or Fortran order
        x = np.random.default_rng(11).standard_normal((1000, 100))
        s = cov_pair(DataMatrix.from_array(x)).mle
        for m in (s, SymMat(np.asfortranarray(s.values))):
            tracemalloc.start()
            try:
                save_sym_mat(m, tmp_path / "mat.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20

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


def _edge_floats() -> list[float]:
    """Values on each boundary of the vectorized formatter's fixed-notation domain."""
    tiny = float(np.finfo(np.float64).tiny)
    vals = [0.0, 5e-324, tiny, 0.1, 1 / 3, float(np.finfo(np.float64).max)]
    vals += [2.0**51 + 0.25, 2.0**51 + 0.75]  # 17-digit ties, rounded half to even
    vals += [j / 2.0**i for i in (1, 3, 10, 30, 52) for j in (1, 3, 7, 2**i - 1)]
    vals += [2.0**53 + 2.0, 3.0 * 2.0**52, 1234567890123456.0 * 5.0, 9999999999999998.0]  # integers in [2**53, 1e16)
    centres = [1e-4, 9.9999999999999991e-05, 2.0**52, 2.0**53, 1e16] + [10.0**k for k in range(-5, 18)]
    for c in centres:
        vals += [float(np.nextafter(c, 0.0)), c, float(np.nextafter(c, np.inf))]
    return vals + [-v for v in vals]


@pytest.mark.parametrize("e", range(-4, 17))
def test_decade_start_is_the_first_float_of_its_exponent(e):
    # the kernel reads E by searchsorted on these starts, so each must be the
    # smallest float64 whose %.17g exponent is E
    start = matrices._DECADES[e + 4]
    assert Decimal(fmt_float(start)).adjusted() == e
    assert Decimal(fmt_float(np.nextafter(start, 0.0))).adjusted() == e - 1


def _csv_row(row) -> bytes:
    return (",".join(map(fmt_float, row)) + "\r\n").encode()


def _formatted_row(row) -> bytes:
    row = np.asarray(row, dtype=np.float64)
    ends = np.zeros(row.size, dtype=bool)
    ends[-1] = True
    return matrices._format_fields(row, ends)


def test_formatter_matches_fmt_float_on_edge_values():
    vals = _edge_floats()
    assert _formatted_row(vals) == _csv_row(vals)


def test_kernel_gives_the_17_digits_of_every_field_in_its_domain():
    # checked on D and E directly: a field the kernel skipped would pass the
    # byte tests through the fmt_float fallback
    vals = [v for v in _edge_floats() if 1e-4 <= abs(v) < 1e16]
    vals += list(10.0 ** np.random.default_rng(12).uniform(-4.0, 16.0, 2000))
    d, e = matrices._decimal17(np.array(vals))
    want = [format(abs(v), ".16e").split("e") for v in vals]
    assert d.tolist() == [int(m.replace(".", "")) for m, _ in want]
    assert e.tolist() == [int(x) for _, x in want]


# any finite float, and floats in the digit kernel's domain 1e-4 <= |x| < 1e16
_FIELDS = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e16, 1e16).filter(lambda v: abs(v) >= 1e-4)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(_FIELDS, min_size=1, max_size=40))
def test_formatter_matches_fmt_float(row):
    assert _formatted_row(row) == _csv_row(row)
