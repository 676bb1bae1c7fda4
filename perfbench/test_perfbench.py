"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Each workload runs untraced and traced at a tiny size through the same
code as a full run. The tests show that every metric named in
BENCHMARK.json is printed with its unit, that every op passes its output
check, that traced outputs equal untraced ones, and that the checks do
reject wrong outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
# grid_step differs from the CLI default, so the checks fail unless it reaches the op
TINY = {
    "cell-p250": {"n": 30, "p": 20, "ktr": 4, "replicates": 2, "grid_step": 5},
    "estimate-p1000": {"p": 30, "n": 20, "warmup_p": 10, "grid_step": 3},
    "sure-small": {"pool": 4},
    "oracle-check": {"p": 8, "k": 3, "samples": 500},
}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tiny(name: str) -> dict:
    return {**run.load_workloads()[name]["params"], **TINY[name]}


def test_declared_workloads_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.load_workloads())
    assert set(TINY) == set(run.load_workloads())


@pytest.mark.parametrize("name", TINY)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run(name, trace):
    result, detail = run.run_workload(name, _tiny(name), seed=3, seconds=0.2, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        # the traced half ran and was compared with the untraced half
        assert detail["samples"]["untraced_ops"] < detail["samples"]["ops"]
    else:
        assert detail["environment"]["thread_env"] == dict.fromkeys(run.THREAD_VARS, "1")


def test_checks_reject_wrong_outputs(tmp_path):
    params = _tiny("sure-small")
    good = {"traced": False, "inputs": 0, "error": None}
    want = checks._sure_checker(params, 3)(dict(good, k_hat=-1))
    assert want is not None and "closed-form SURE argmin" in want

    (tmp_path / "a").mkdir()
    report = {"rel_frob_gap": 0.5, "max_imag": 0.0, "mc_estimate": [[1.0]]}
    (tmp_path / "a" / "oracle_check.json").write_text(json.dumps(report))
    assert "rel_frob_gap" in checks._oracle_checker({}, 3)({"dir": str(tmp_path / "a")})

    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "out.csv").write_text("1\n")
    (tmp_path / "b" / "out.csv").write_text("2\n")
    (tmp_path / "b" / "oracle_check.json").write_text(json.dumps(report))
    ops = [dict(good, dir=str(tmp_path / "a")), dict(good, traced=True, dir=str(tmp_path / "b"))]
    assert checks._same_as_untraced(ops)(ops[1]) == "traced outputs differ from untraced outputs"


def test_cell_check_rejects_drift(tmp_path):
    params = _tiny("cell-p250")
    expected = checks.reference.cell_records(params, 3)
    header = "method,replicates,op_err_mean,op_err_se,fro_err_mean,fro_err_se,k_hat_mode,k_opt\n"
    rows = []
    for method in params["methods"].split(","):
        e = expected.get(method, expected["sample"])
        k = "" if e["k_hat_mode"] is None else str(e["k_hat_mode"])
        ko = "" if e["k_opt"] is None else str(e["k_opt"])
        rows.append(f"{method},2,{e['op_err_mean']!r},{e['op_err_se']!r},{e['fro_err_mean']!r},{e['fro_err_se']!r},{k},{ko}\n")
    check = checks._cell_checker(params, 3)
    (tmp_path / "records.csv").write_text(header + "".join(rows))
    assert check({"dir": str(tmp_path)}) is None
    rows[0] = rows[0].replace(repr(expected["cd"]["op_err_mean"]), repr(expected["cd"]["op_err_mean"] * (1 + 1e-6)))
    (tmp_path / "records.csv").write_text(header + "".join(rows))
    assert "op_err_mean" in check({"dir": str(tmp_path)})


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "sure-small", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
