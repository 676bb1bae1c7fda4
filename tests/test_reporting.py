import csv

import numpy as np
import pytest

from cdcov import BenchRecord, InvalidInputError
from cdcov.reporting import (
    emit_plot_data,
    records_from_csv,
    records_to_csv,
    render_table,
)


def rec(method="cd", p=250, ktr=10, s=0.5, **overrides):
    kwargs = dict(
        method=method,
        setting=1,
        n=100,
        p=p,
        ktr=ktr,
        s=s,
        replicates=20,
        op_err_mean=0.25,
        op_err_se=0.04,
        fro_err_mean=0.56,
        fro_err_se=0.04,
        k_hat_mode=240 if method == "cd" else None,
        k_opt=240 if method == "cd" else None,
    )
    kwargs.update(overrides)
    return BenchRecord(**kwargs)


def table1_shaped_records():
    records = []
    rng = np.random.default_rng(0)
    for ktr in (10, 50):
        for p in (250, 500, 1000):
            for method in ("cd", "at", "poet"):
                records.append(
                    rec(
                        method=method,
                        p=p,
                        ktr=ktr,
                        op_err_mean=float(rng.uniform(0.2, 1.0)),
                        fro_err_mean=float(rng.uniform(0.5, 4.0)),
                    )
                )
    return records


class TestRecordsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        records = table1_shaped_records() + [rec(method="sample", k_hat_mode=None, k_opt=None)]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert records_from_csv(path) == records

    def test_full_precision_survives(self, tmp_path):
        r = rec(op_err_mean=1.0 / 3.0, fro_err_mean=np.pi)
        path = tmp_path / "records.csv"
        records_to_csv([r], path)
        back = records_from_csv(path)[0]
        assert back.op_err_mean == 1.0 / 3.0
        assert back.fro_err_mean == np.pi

    def test_unexpected_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            records_from_csv(path)

    @pytest.mark.parametrize("prefix", [b"\xef\xbb\xbf", b"\r\n"], ids=["bom", "leading-blank-line"])
    def test_header_is_the_first_nonblank_row(self, tmp_path, prefix):
        path = tmp_path / "records.csv"
        records_to_csv([rec()], path)
        path.write_bytes(prefix + path.read_bytes())
        assert records_from_csv(path) == [rec()]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: cells[:7] + ["abc"] + cells[8:], "line 3: could not convert"),
            (lambda cells: cells[:5], "line 3: expected 13 cells, got 5"),
            (lambda cells: cells + ["1"], "line 3: expected 13 cells, got 14"),
            (lambda cells: cells[:3] + [""] + cells[4:], "line 3: column 'p' is empty"),
            (lambda cells: cells[:4] + ["1.5"] + cells[5:], "line 3: invalid literal for int"),
        ],
        ids=["non-numeric", "short", "long", "empty-required", "fractional-int"],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, edit, message):
        path = tmp_path / "records.csv"
        records_to_csv([rec(), rec(method="at", k_hat_mode=None, k_opt=None)], path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=message) as info:
            records_from_csv(path)
        assert str(path) in str(info.value)


class TestRenderTable:
    def test_single_record_renders_one_cell(self):
        text = render_table([rec()])
        assert "[operator-norm]" in text
        assert "0.25 (0.04)" in text

    def test_three_panel_layout_with_six_columns(self):
        text = render_table(table1_shaped_records())
        lines = text.splitlines()
        assert lines[0].split() == ["ktr", "10", "10", "10", "50", "50", "50"]
        assert lines[1].split() == ["p", "250", "500", "1000", "250", "500", "1000"]
        assert lines[2].split() == ["s"] + ["0.5"] * 6
        assert sum(line.startswith("[") for line in lines) == 3
        assert "[k-selection]" in text and "[frobenius-norm]" in text

    def test_missing_cells_render_em_dash(self):
        records = [rec(p=250), rec(p=500, method="at", k_hat_mode=None, k_opt=None)]
        text = render_table(records)
        assert "—" in text

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidInputError):
            render_table([])

    def test_each_sparsity_level_gets_its_own_column(self):
        records = [rec(s=0.7, op_err_mean=0.75), rec(s=0.1, op_err_mean=0.11)]
        lines = render_table(records).splitlines()
        assert lines[2].split() == ["s", "0.1", "0.7"]
        cd_op = lines[lines.index("[operator-norm]") + 1]
        assert cd_op.split() == ["CD", "0.11", "(0.04)", "0.75", "(0.04)"]

    @pytest.mark.parametrize("other", [{"setting": 2}, {"n": 50}], ids=["setting", "n"])
    def test_two_records_for_one_cell_rejected(self, other):
        with pytest.raises(InvalidInputError, match="method=cd, s=0.5, ktr=10, p=250"):
            render_table([rec(), rec(**other)])


class TestPlotData:
    def test_long_format_shape(self, tmp_path):
        records = []
        for s in np.linspace(0.1, 0.7, 7):
            for method in ("cd", "at", "poet"):
                records.append(rec(method=method, s=float(s), k_hat_mode=None, k_opt=None))
        path = tmp_path / "plot.csv"
        emit_plot_data(records, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["s", "method", "norm", "mean", "se"]
        assert len(rows) - 1 == 7 * 3 * 2

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "plot.csv"
        emit_plot_data([], path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows == [["s", "method", "norm", "mean", "se"]]

    def test_values_match_records(self, tmp_path):
        records = [rec(), rec(method="at", op_err_mean=0.7, k_hat_mode=None, k_opt=None)]
        path = tmp_path / "plot.csv"
        emit_plot_data(records, path)
        with open(path) as f:
            rows = {(r["method"], r["norm"]): float(r["mean"]) for r in csv.DictReader(f)}
        assert rows[("cd", "op")] == records[0].op_err_mean
        assert rows[("at", "op")] == records[1].op_err_mean
        assert rows[("cd", "fro")] == records[0].fro_err_mean
