"""Output checks of every op, run in the parent after the children exit.

``check`` returns one failure reason (or None) per op. An op fails if it
raised, exited non-zero, skipped a replicate, wrote outputs that fail
its workload's check, or, when traced, wrote outputs that differ from
the untraced op on the same inputs (files byte for byte, except the
manifest's timestamps and timings).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs
import reference

# The seed version's rows are reproduced in a different summation order,
# so agreement is to rounding, far below any change a refactor may make.
CELL_RTOL = 1e-9
ESTIMATE_RTOL = 1e-12
ORACLE_GAP = 0.02
ORACLE_IMAG = 1e-6

_CELL_FLOATS = ("op_err_mean", "op_err_se", "fro_err_mean", "fro_err_se")


def _read_floats_csv(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    return np.array(",".join(lines).split(","), dtype=np.float64).reshape(len(lines), -1)


def _cell_checker(params: dict, seed: int):
    expected = reference.cell_records(params, seed)
    methods = params["methods"].split(",")

    def check(op: dict) -> str | None:
        with open(Path(op["dir"]) / "records.csv", newline="") as f:
            rows = {row["method"]: row for row in csv.DictReader(f)}
        for method in methods:
            row = rows.get(method)
            if row is None:
                return f"no {method} record"
            if int(row["replicates"]) != params["replicates"]:
                return f"{method}: {row['replicates']} of {params['replicates']} replicates"
            if not all(math.isfinite(float(row[key])) for key in _CELL_FLOATS):
                return f"{method}: non-finite error"
            if method not in expected:
                continue
            for key, want in expected[method].items():
                got = row[key]
                if key in _CELL_FLOATS:
                    if not math.isclose(float(got), want, rel_tol=CELL_RTOL, abs_tol=1e-15):
                        return f"{method}.{key} = {got}, seed version gives {want!r}"
                elif (int(got) if got else None) != want:
                    return f"{method}.{key} = {got!r}, seed version gives {want!r}"
        return None

    return check


def _estimate_checker(params: dict, seed: int):
    x = inputs.estimate_data(params, seed)
    k_hat = reference.select_k(x, reference.default_k_grid(params["p"], params["grid_step"]))
    s_mle, _ = reference.sample_covariances(x)
    want = reference.cd_estimate(s_mle, k_hat)
    tol = ESTIMATE_RTOL * float(np.max(np.abs(want)))

    def check(op: dict) -> str | None:
        out = Path(op["dir"])
        k = json.loads((out / "metadata.json").read_text()).get("k")
        if k != k_hat:
            return f"k = {k}, closed-form SURE argmin is {k_hat}"
        got = _read_floats_csv(out / "estimate.csv")
        if got.shape != want.shape:
            return f"estimate.csv has shape {got.shape}"
        gap = float(np.max(np.abs(got - want)))
        if not gap <= tol:
            return f"estimate.csv differs from eta S + gamma Tr(S) I by {gap:g} (> {tol:g})"
        return None

    return check


def _oracle_checker(params: dict, seed: int):
    def check(op: dict) -> str | None:
        report = json.loads((Path(op["dir"]) / "oracle_check.json").read_text())
        scale = float(np.linalg.norm(np.asarray(report["mc_estimate"])))
        if not report["rel_frob_gap"] <= ORACLE_GAP:
            return f"rel_frob_gap {report['rel_frob_gap']} > {ORACLE_GAP}"
        if not report["max_imag"] <= ORACLE_IMAG * scale:
            return f"max_imag {report['max_imag']} > {ORACLE_IMAG} * {scale}"
        return None

    return check


def _sure_checker(params: dict, seed: int):
    grid = np.arange(params["grid_min"], params["grid_max"] + 1)
    k_hats = [reference.select_k(x, grid) for x, _ in inputs.sure_pool(params, seed)]

    def check(op: dict) -> str | None:
        want = k_hats[op["inputs"]]
        if op["k_hat"] != want:
            return f"inputs {op['inputs']}: k_hat {op['k_hat']}, closed-form SURE argmin {want}"
        return None

    return check


CHECKERS = {
    "cell-p250": _cell_checker,
    "estimate-p1000": _estimate_checker,
    "sure-small": _sure_checker,
    "oracle-check": _oracle_checker,
}


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def _same_as_untraced(ops: list[dict]):
    """Compare each traced op with the untraced op on the same inputs."""
    untraced = {op["inputs"]: op for op in ops if not op["traced"] and op["error"] is None}

    def differs(op: dict) -> str | None:
        base = untraced.get(op["inputs"])
        if base is None:
            return "no untraced op on the same inputs to compare with"
        if "digest" in op:
            same = op["digest"] == base["digest"]
        else:
            same = _files(Path(op["dir"])) == _files(Path(base["dir"]))
        return None if same else "traced outputs differ from untraced outputs"

    return differs


def check(workload: str, params: dict, seed: int, ops: list[dict]) -> list[str | None]:
    checker = CHECKERS[workload](params, seed)
    differs = _same_as_untraced(ops)
    reasons = []
    for op in ops:
        if op["error"] is not None:
            reason = op["error"].strip().splitlines()[-1]
        elif op.get("rc", 0) != 0:
            reason = f"exit code {op['rc']}"
        else:
            try:
                reason = checker(op) or (differs(op) if op["traced"] else None)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"unreadable output: {exc!r}"
        reasons.append(reason)
    return reasons
