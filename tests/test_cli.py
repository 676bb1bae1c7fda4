import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdcov.simulate as simulate
from cdcov import (
    AtConfig,
    RngSeed,
    UsageError,
    cd_estimate,
    cov_pair,
    cross_validate_delta,
    default_k_grid,
    hard_threshold_estimate,
    load_data_matrix,
    save_sym_mat,
    select_k,
)
from cdcov.cli import SCHEMAS, main, parse_config
from cdcov.reporting import records_from_csv


def write_data_csv(path, x):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in x:
            writer.writerow([format(v, ".17g") for v in row])
    return path


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(7)
    return write_data_csv(tmp_path / "data.csv", rng.standard_normal((10, 50)))


class TestParseConfig:
    def test_flags_override_file(self):
        schema = SCHEMAS["simulate"]
        file_cfg = {"n": 100, "p": 250, "ktr": 10, "s": 0.5, "replicates": 5, "seed": 1}
        flag_cfg = {"p": 500}
        resolved = parse_config(schema, file_cfg, flag_cfg)
        assert resolved["p"] == 500
        assert resolved["n"] == 100

    def test_defaults_materialize(self):
        schema = SCHEMAS["simulate"]
        file_cfg = {"n": 100, "p": 250, "ktr": 10, "s": 0.5, "replicates": 5, "seed": 1}
        resolved = parse_config(schema, file_cfg, {})
        assert resolved["setting"] == 1
        assert resolved["methods"] == "cd,at,poet"
        assert set(resolved) == set(schema)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(UsageError, match="pp"):
            parse_config(SCHEMAS["simulate"], {"pp": 3}, {})

    def test_missing_required_named(self):
        with pytest.raises(UsageError, match="seed"):
            parse_config(
                SCHEMAS["simulate"],
                {"n": 10, "p": 8, "ktr": 2, "s": 0.5, "replicates": 2},
                {},
            )

    def test_type_mismatch(self):
        with pytest.raises(UsageError, match="'n'"):
            parse_config(SCHEMAS["simulate"], {"n": "lots"}, {})

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("oracle-check", "p", 8.9),
            ("oracle-check", "k", True),
            ("oracle-check", "seed", 3.7),
            ("simulate", "replicates", float("inf")),
            ("simulate", "sigma0_sq", True),
        ],
        ids=["fractional p", "bool k", "fractional seed", "infinite int", "bool float"],
    )
    def test_file_number_is_not_truncated(self, command, key, value):
        # a JSON config's 8.9 ran as p = 8, true as k = 1 and 1.0 as sigma0_sq
        with pytest.raises(UsageError, match=f"config key '{key}'"):
            parse_config({key: SCHEMAS[command][key]}, {key: value}, {})

    def test_integral_float_reads_as_int(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"p": 6.0, "k": 2, "samples": 10, "seed": 1}))
        assert main(["oracle-check", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "oracle_check.json").read_text())
        assert report["p"] == 6 and isinstance(report["p"], int)
        config.write_text(json.dumps({"p": 6.5, "k": 2, "samples": 10, "seed": 1}))
        assert main(["oracle-check", "--config", str(config), "--out", str(tmp_path / "b")]) == 2


class TestSimulateCommand:
    def test_writes_records_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "simulate", "--out", str(out), "--n", "30", "--p", "16", "--ktr", "2",
                "--s", "0.5", "--replicates", "2", "--seed", "5", "--methods", "cd,sample",
            ]
        )
        assert code == 0
        records = records_from_csv(out / "records.csv")
        assert {r.method for r in records} == {"cd", "sample"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 5
        assert manifest["artifacts"] == ["records.csv"]

    def test_rerun_from_manifest_is_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = [
            "simulate", "--n", "30", "--p", "16", "--ktr", "2", "--s", "0.4",
            "--replicates", "2", "--seed", "9", "--methods", "cd,at",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        # AT's and POET's records can follow BLAS's thread count, so the manifest
        # names it; a rerun from the manifest still reads only its config block
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--n", "20", "--p", "6", "--ktr", "2", "--s", "0.5", "--replicates", "1", "--seed", "2"]
        assert main(args + ["--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["environment"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": None,
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
        }
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert main(["simulate", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert json.loads((out2 / "manifest.json").read_text())["config"] == manifest["config"]
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path):
        code = main(
            [
                "simulate", "--out", str(tmp_path / "x"), "--n", "30", "--p", "16",
                "--ktr", "2", "--s", "0.5", "--replicates", "2",
            ]
        )
        assert code == 2


class TestEstimateCommand:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--method", "sample"],
            ["--method", "cd"],
            ["--method", "cd", "--k", "4"],
            ["--method", "at", "--seed", "3"],
            ["--method", "poet", "--factors", "2", "--seed", "3"],
        ],
    )
    def test_methods_produce_square_output(self, tmp_path, data_csv, extra):
        out = tmp_path / "est"
        code = main(["estimate", "--out", str(out), "--input", str(data_csv)] + extra)
        assert code == 0
        with open(out / "estimate.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 10 and all(len(r) == 10 for r in rows)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["p"] == 10 and meta["n"] == 50

    def test_at_without_seed_fails_usage(self, tmp_path, data_csv):
        code = main(["estimate", "--out", str(tmp_path / "x"), "--input", str(data_csv), "--method", "at"])
        assert code == 2

    def test_poet_without_factors_fails_usage(self, tmp_path, data_csv):
        code = main(
            ["estimate", "--out", str(tmp_path / "x"), "--input", str(data_csv),
             "--method", "poet", "--seed", "3"]
        )
        assert code == 2

    def test_missing_input_is_usage_error(self, tmp_path):
        code = main(
            ["estimate", "--out", str(tmp_path / "x"), "--input", str(tmp_path / "nope.csv"),
             "--method", "sample"]
        )
        assert code == 2


class TestEstimateMatchesLibrary:
    """``estimate`` writes what the library's own calls give on the same data."""

    def run(self, tmp_path, data_csv, *extra):
        out = tmp_path / "est"
        assert main(["estimate", "--out", str(out), "--input", str(data_csv), *extra]) == 0
        pair = cov_pair(load_data_matrix(data_csv))
        return out, json.loads((out / "metadata.json").read_text()), pair

    def assert_estimate_bytes(self, out, est, tmp_path):
        save_sym_mat(est, tmp_path / "library.csv")
        assert (out / "estimate.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_at_delta_and_estimate(self, tmp_path, data_csv):
        out, meta, pair = self.run(tmp_path, data_csv, "--method", "at", "--seed", "3", "--stream", "1")
        delta = cross_validate_delta(pair.x, AtConfig(), RngSeed(3, 1))
        assert meta["delta"] == delta
        self.assert_estimate_bytes(out, hard_threshold_estimate(pair, delta), tmp_path)

    def test_cd_k_and_sure_min(self, tmp_path, data_csv):
        out, meta, pair = self.run(tmp_path, data_csv, "--method", "cd", "--grid-step", "3")
        curve = select_k(pair, default_k_grid(pair.mle.dim, 3))
        assert meta["k"] == curve.k_hat
        assert meta["sure_min"] == float(np.min(curve.sure_values))
        self.assert_estimate_bytes(out, cd_estimate(pair.mle, curve.k_hat), tmp_path)


@pytest.mark.parametrize("step", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--n", "30", "--p", "16", "--ktr", "2", "--s", "0.5", "--replicates", "2",
         "--seed", "5", "--methods", "cd"],
        ["sweep", "--n", "30", "--p", "16", "--ktr", "2", "--s-list", "0.5", "--replicates", "2",
         "--seed", "5", "--methods", "cd"],
        ["estimate", "--input", "{data}", "--method", "cd"],
        ["sure", "--input", "{data}"],
        ["risk-oracle", "--sigma0", "{sigma0}", "--n", "25", "--reps", "2", "--seed", "1"],
    ],
    ids=lambda c: c[0],
)
def test_grid_step_below_one_is_usage_error(tmp_path, data_csv, capsys, command, step):
    sigma0 = write_data_csv(tmp_path / "sigma0.csv", np.diag([1.0, 2.0, 3.0]))
    argv = [a.format(data=data_csv, sigma0=sigma0) for a in command]
    assert main(argv + ["--out", str(tmp_path / "x"), "--grid-step", step]) == 2
    assert "grid_step" in capsys.readouterr().err


class TestSureCommand:
    def test_curve_and_summary(self, tmp_path, data_csv):
        out = tmp_path / "sure"
        code = main(["sure", "--out", str(out), "--input", str(data_csv), "--grid-step", "2"])
        assert code == 0
        with open(out / "sure_curve.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["k"] for r in rows] == ["2", "4", "6", "8", "10"]
        summary = json.loads((out / "sure.json").read_text())
        assert summary["k_hat"] in {2, 4, 6, 8, 10}
        assert summary["offset_estimate"] > 0.0


class TestRiskOracleCommand:
    def test_outputs(self, tmp_path):
        sigma0 = tmp_path / "sigma0.csv"
        with open(sigma0, "w", newline="") as f:
            writer = csv.writer(f)
            for row in np.diag([1.0, 2.0, 3.0, 4.0]):
                writer.writerow([format(v, ".17g") for v in row])
        out = tmp_path / "risk"
        code = main(
            ["risk-oracle", "--out", str(out), "--sigma0", str(sigma0),
             "--n", "25", "--reps", "4", "--seed", "11", "--grid-step", "1"]
        )
        assert code == 0
        summary = json.loads((out / "risk.json").read_text())
        assert 1 <= summary["k_opt"] <= 4
        with open(out / "risk_curve.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4


class TestOracleCheckCommand:
    def test_report_written(self, tmp_path):
        out = tmp_path / "oracle"
        code = main(
            ["oracle-check", "--out", str(out), "--p", "6", "--k", "2",
             "--samples", "2000", "--seed", "21"]
        )
        assert code == 0
        payload = json.loads((out / "oracle_check.json").read_text())
        assert payload["p"] == 6 and payload["k"] == 2
        assert payload["rel_frob_gap"] < 0.1
        assert len(payload["mc_estimate"]) == 6


class TestRenderCommand:
    def test_round_trip_and_table(self, tmp_path, capsys):
        run_out = tmp_path / "run"
        main(
            [
                "simulate", "--out", str(run_out), "--n", "30", "--p", "16", "--ktr", "2",
                "--s", "0.5", "--replicates", "2", "--seed", "5", "--methods", "cd,sample",
            ]
        )
        render_out = tmp_path / "render"
        code = main(
            ["render", "--out", str(render_out), "--records", str(run_out / "records.csv"),
             "--plot-data"]
        )
        assert code == 0
        assert (render_out / "table.csv").read_bytes() == (run_out / "records.csv").read_bytes()
        text = (render_out / "table.txt").read_text(encoding="utf-8")
        assert "[operator-norm]" in text
        assert (render_out / "plot_data.csv").exists()

    def test_sweep_renders_every_sparsity_level(self, tmp_path, capsys):
        run_out = tmp_path / "sweep"
        argv = ["sweep", "--out", str(run_out), "--n", "30", "--p", "12", "--ktr", "2", "--s-list", "0.1,0.7",
                "--replicates", "2", "--seed", "5", "--methods", "cd,sample"]
        assert main(argv) == 0
        records = records_from_csv(run_out / "records.csv")
        assert main(["render", "--out", str(tmp_path / "render"), "--records", str(run_out / "records.csv")]) == 0
        lines = (tmp_path / "render" / "table.txt").read_text(encoding="utf-8").splitlines()
        assert lines[2].split() == ["s", "0.1", "0.7"]
        cd_op = lines[lines.index("[operator-norm]") + 1].split()
        assert cd_op[1::2] == [f"{r.op_err_mean:.2f}" for r in records if r.method == "cd"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines + [lines[1]], "two records for the cell method=cd"),
            (lambda lines: [lines[0], lines[1].replace(",0.5,", ",abc,", 1)], "line 2: could not convert"),
            (lambda lines: [lines[0], lines[1][: lines[1].index(",0.5,")]], "line 2: expected 13 cells, got 5"),
        ],
        ids=["duplicated-cell", "non-numeric", "short-row"],
    )
    def test_bad_records_exit_2(self, tmp_path, capsys, edit, message):
        run_out = tmp_path / "run"
        argv = ["simulate", "--out", str(run_out), "--n", "30", "--p", "12", "--ktr", "2", "--s", "0.5",
                "--replicates", "2", "--seed", "5", "--methods", "cd"]
        assert main(argv) == 0
        records = run_out / "records.csv"
        records.write_text("\n".join(edit(records.read_text().splitlines())) + "\n")
        assert main(["render", "--out", str(tmp_path / "render"), "--records", str(records)]) == 2
        assert message in capsys.readouterr().err


def test_unknown_config_key_via_file(tmp_path, data_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pp": 3}))
    code = main(["sure", "--out", str(tmp_path / "x"), "--config", str(cfg), "--input", str(data_csv)])
    assert code == 2


def test_sure_has_no_grid_bound_keys(tmp_path, data_csv, capsys):
    # the full curve holds every k of a narrower range, so sure takes only grid_step
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(data_csv), "grid_min": 3}))
    assert main(["sure", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
    assert "unknown config key 'grid_min'" in capsys.readouterr().err


_SIM = ["simulate", "--n", "30", "--p", "16", "--ktr", "2", "--s", "0.5", "--replicates", "2",
        "--seed", "5", "--methods", "cd"]
_SWEEP = ["sweep", "--n", "30", "--p", "16", "--ktr", "2", "--s-list", "0.5", "--replicates", "2",
          "--seed", "5", "--methods", "cd"]
_EST = ["estimate", "--input", "{data}"]
_AT = [*_EST, "--method", "at", "--seed", "3"]

# (base argv, malformed flags, the library's message); a later flag overrides the base's
_MALFORMED = [
    (_SIM, ["--folds", "1"], "folds must be >= 2, got 1"),
    (_SIM, ["--delta-count", "0"], "delta_grid must be nonempty"),
    (_SIM, ["--replicates", "0"], "replicate count must be >= 1, got 0"),
    (_SIM, ["--seed", "-1"], "seed must be an unsigned 64-bit integer, got -1"),
    (_SIM, ["--setting", "3"], "setting must be 1 or 2, got 3"),
    (_SIM, ["--ktr", "16"], "1 <= ktr < p, got 16"),
    (_SIM, ["--delta-min", "2", "--delta-max", "1"], "delta_grid must be strictly increasing"),
    (_SIM, ["--threads", "0"], "threads must be >= 1, got 0"),
    (_SIM, ["--threads", "-4"], "threads must be >= 1, got -4"),
    (_EST, ["--method", "at", "--seed", "3", "--delta-grid", "2,1"], "delta_grid must be strictly increasing"),
    (_EST, ["--method", "at", "--seed", "-3"], "seed must be an unsigned 64-bit integer, got -3"),
    (_EST, ["--method", "cd", "--k", "11"], "1 <= k <= p=10"),
    (_EST, ["--method", "poet", "--seed", "3", "--factors", "-1"], "n_factors must be >= 0, got -1"),
    (_EST, ["--method", "at", "--seed", "3", "--folds", "1"], "folds must be >= 2, got 1"),
    (_SIM, ["--delta-min", "0"], "delta_min must lie in (0, inf), got 0.0"),
    (_SIM, ["--delta-max", "0"], "delta_max must lie in (0, inf), got 0.0"),
    (_SIM, ["--delta-count", "-1"], "delta_count must be >= 0, got -1"),
    (_SIM, ["--delta-max", "nan"], "delta_max must lie in (0, inf), got nan"),
    (_AT, ["--delta-max", "nan"], "delta_max must lie in (0, inf), got nan"),
    (_AT, ["--delta-grid", "0.1,nan"], "delta values must be finite and nonnegative, got (0.1, nan)"),
    (_AT, ["--delta-grid", "0.5,inf"], "delta values must be finite and nonnegative, got (0.5, inf)"),
    (_SIM, ["--sigma0-sq", "nan"], "sigma0_sq must lie in (0, inf), got nan"),
    (_SIM, ["--ar-error-var", "inf"], "ar_error_var must lie in (0, inf), got inf"),
    (["oracle-check", "--k", "1", "--samples", "10", "--seed", "1"], ["--p", "-1"], "p must be >= 1, got -1"),
    (_SWEEP, ["--s-list", "0.5,abc"], "s_list: could not convert string to float: 'abc'"),
    (_SWEEP, ["--s-list", ","], "s_list is empty"),
    # a repeated method or sparsity level would write two records for one cell, which render rejects
    (_SIM, ["--methods", "cd,cd,sample"], "methods list must be nonempty and distinct, got ['cd', 'cd', 'sample']"),
    (_SWEEP, ["--s-list", "0.5,0.5"], "s_values must be nonempty and distinct, got [0.5, 0.5]"),
]


@pytest.mark.parametrize(
    "base, extra, message", _MALFORMED, ids=[f"{b[0]} {' '.join(e)}" for b, e, _ in _MALFORMED]
)
def test_malformed_config_exits_2_with_the_library_message(tmp_path, data_csv, capsys, base, extra, message):
    argv = [a.format(data=data_csv) for a in base + extra]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "config file not found"),
        ("{", "invalid JSON"),
        ("[1, 2]", "expected a JSON object"),
        ('{"command": "simulate", "config": [1]}', "manifest has a malformed config block"),
        ('{"k_opt": "yes"}', "config key 'k_opt': expected a boolean"),
    ],
    ids=["missing", "invalid-json", "array", "manifest-config-not-object", "string-for-bool"],
)
def test_bad_config_file_exits_2(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main([*_SIM, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err


def test_config_file_with_a_bom_reads(tmp_path, data_csv):
    cfg = tmp_path / "bom.json"
    cfg.write_bytes(b'\xef\xbb\xbf{"grid_step": 5}')
    out = tmp_path / "x"
    assert main(["sure", "--input", str(data_csv), "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["grid_step"] == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sure", "--input", "{binary}"], "not a text file"),
        (["sure", "--input", "{data}", "--config", "{binary}"], "invalid JSON"),
        (["render", "--records", "{binary}"], "not a text file"),
    ],
    ids=["input", "config", "records"],
)
def test_file_that_is_not_utf8_text_exits_2_naming_it(tmp_path, data_csv, capsys, argv, message):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(bytes(range(128, 256)))
    argv = [a.format(binary=binary, data=data_csv) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert message in err and str(binary) in err


def _cli_in_ascii_locale(argv, utf8_mode="0"):
    """``cdcov argv`` in a fresh process under the C locale, in or out of Python's UTF-8 mode."""
    src = str(Path(simulate.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": utf8_mode, "PYTHONPATH": src}
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, "-m", "cdcov.cli", *argv], env=env, capture_output=True)


class TestAsciiLocale:
    # every text file is UTF-8, whatever the locale's encoding
    def test_render_writes_the_utf8_table(self, tmp_path):
        argv = ["simulate", "--out", str(tmp_path / "run"), "--n", "30", "--p", "12", "--ktr", "2",
                "--s", "0.5", "--replicates", "2", "--seed", "5", "--methods", "cd,sample"]
        assert main(argv) == 0
        tables = []
        for mode in ("0", "1"):
            out = tmp_path / f"render-{mode}"
            argv = ["render", "--out", str(out), "--records", str(tmp_path / "run" / "records.csv")]
            done = _cli_in_ascii_locale(argv, mode)
            assert done.returncode == 0, done.stderr.decode()
            assert (out / "manifest.json").exists()
            tables.append((out / "table.txt").read_bytes())
        assert "—".encode() in tables[0]
        assert tables[0] == tables[1]

    def test_estimate_reads_a_utf8_header(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes("température,pression\n1,2\n3,5\n4,4\n".encode())
        argv = ["estimate", "--input", str(data), "--header", "--method", "sample", "--out", str(tmp_path / "x")]
        done = _cli_in_ascii_locale(argv)
        assert done.returncode == 0, done.stderr.decode()
        assert (tmp_path / "x" / "estimate.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sure", "--input", "{missing}"],
        ["sure", "--input", "{dir}"],
        ["risk-oracle", "--sigma0", "{missing}", "--n", "5", "--reps", "2", "--seed", "1"],
        ["render", "--records", "{missing}"],
        ["sure", "--input", "{data}", "--config", "{dir}"],
    ],
    ids=["missing-input", "input-dir", "missing-sigma0", "missing-records", "config-dir"],
)
def test_file_that_cannot_be_opened_exits_2_naming_it(tmp_path, data_csv, capsys, argv):
    missing, folder = tmp_path / "nosuch.csv", tmp_path / "folder"
    folder.mkdir()
    argv = [a.format(missing=missing, dir=folder, data=data_csv) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert str(missing) in err or str(folder) in err


def test_input_the_library_rejects_exits_2(tmp_path, data_csv, capsys):
    # one rule: every InvalidInputError exits 2, whoever raises it, input files included
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1,2\n3,x\n")
    indefinite = write_data_csv(tmp_path / "sigma0.csv", np.diag([1.0, -1.0]))
    cases = [
        (["estimate", "--input", str(bad_csv), "--method", "sample"], "non-numeric value"),
        (["risk-oracle", "--sigma0", str(indefinite), "--n", "5", "--reps", "2", "--seed", "1"],
         "positive semidefinite"),
        (["estimate", "--input", str(data_csv), "--method", "mystery"], "unknown method 'mystery'"),
        ([*_SIM, "--methods", "cd,mystery"], "unknown method 'mystery'"),
        ([*_SIM, "--methods", " , "], "methods list must be nonempty"),
        (["sweep", "--n", "30", "--p", "16", "--ktr", "2", "--s-list", "0.5,1.0", "--replicates", "2",
          "--seed", "5", "--methods", "cd"], "got s=1.0"),
    ]
    for argv, message in cases:
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2, argv
        assert message in capsys.readouterr().err


def test_trace_overflow_exits_2_and_writes_no_estimate(tmp_path, capsys):
    # each S_ii is 0.45e308, finite, but Tr(S) overflows; under warnings-as-errors
    # this used to escape as numpy's RuntimeWarning from the trace
    a = np.sqrt(0.45e308)
    data = write_data_csv(tmp_path / "huge.csv", np.tile([a, -a], (4, 1)))
    out = tmp_path / "x"
    assert main(["estimate", "--input", str(data), "--method", "cd", "--k", "2", "--out", str(out)]) == 2
    assert "the trace of the sample covariance overflows float64" in capsys.readouterr().err
    assert not (out / "estimate.csv").exists()


def test_cell_that_fails_on_skips_exits_1(tmp_path, capsys):
    # every replicate skips poet (20 factors at n = 30, p = 16): a runtime failure, not a usage error
    argv = [*_SIM, "--methods", "poet", "--poet-factors", "20", "--out", str(tmp_path / "x")]
    assert main(argv) == 1
    assert "2/2 replicates skipped" in capsys.readouterr().err


def test_negative_poet_factor_count_exits_2_before_any_replicate(tmp_path, capsys, monkeypatch):
    # the cell's POET configuration is built, and checked, before the first replicate draws its truth
    draws = []
    make_sigma0 = simulate.make_sigma0
    monkeypatch.setattr(simulate, "make_sigma0", lambda *args: draws.append(args) or make_sigma0(*args))
    argv = [*_SIM, "--methods", "cd,poet", "--poet-factors", "-1", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "n_factors must be >= 0, got -1" in capsys.readouterr().err
    assert draws == []


# A tiny run of each subcommand with numeric keys; the sweep below sets each key in turn.
_EDGE_BASES = {
    "simulate": ["simulate", "--n", "20", "--p", "8", "--ktr", "2", "--s", "0.5", "--replicates", "1",
                 "--seed", "5", "--methods", "cd,at,poet,sample"],
    "sweep": ["sweep", "--setting", "2", "--n", "20", "--p", "8", "--ktr", "2", "--s-list", "0.5",
              "--replicates", "1", "--seed", "5", "--methods", "cd,at,poet,sample"],
    "estimate": [*_EST, "--method", "poet", "--factors", "2", "--seed", "3"],
    "sure": ["sure", "--input", "{data}"],
    "risk-oracle": ["risk-oracle", "--sigma0", "{sigma0}", "--n", "10", "--reps", "2", "--seed", "1"],
    "oracle-check": ["oracle-check", "--p", "4", "--k", "2", "--samples", "10", "--seed", "1"],
}


@pytest.mark.parametrize("command", sorted(_EDGE_BASES))
def test_edge_values_exit_0_or_2(tmp_path, data_csv, command):
    # every int or float key at 0 and -1, every float key also non-finite: a
    # usage error (2) or a run (0), never a traceback; a non-finite float is
    # always rejected. The only threads values passed, 0 and -1, start no thread.
    sigma0 = write_data_csv(tmp_path / "sigma0.csv", np.diag([1.0, 2.0, 3.0]))
    base = [a.format(data=data_csv, sigma0=sigma0) for a in _EDGE_BASES[command]]
    base += ["--out", str(tmp_path / "x")]
    assert main(base) == 0
    wrong = []
    for key, field in SCHEMAS[command].items():
        if field.type not in (int, float):
            continue
        values = ["0", "-1"] + (["nan", "inf", "-inf"] if field.type is float else [])
        for value in values:
            code = main(base + ["--" + key.replace("_", "-"), value])
            if code not in ((0, 2) if value in ("0", "-1") else (2,)):
                wrong.append((key, value, code))
    assert wrong == []
