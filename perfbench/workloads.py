"""The op of each workload, as the child process runs it.

A CLI workload calls ``cdcov.cli.main`` in-process with one output
directory per op; the API workload calls the public functions. Every op
looks the package's functions up at call time, so a tracer's wrappers
are seen.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import cdcov
import cdcov.cli
import cdcov.sure
import numpy as np

import inputs
from tracing import API_ROOT, CLI_ROOT


class CliWorkload:
    root = CLI_ROOT
    distinct_inputs = 1

    def __init__(self, argv: list[str], workdir: Path, warmup_argv: list[str] | None = None):
        self.argv = argv
        self.warmup_argv = warmup_argv or argv
        self.workdir = workdir

    def _main(self, argv: list[str], out: Path) -> int:
        return cdcov.cli.main([argv[0], "--out", str(out), *argv[1:]])

    def warmup(self) -> None:
        rc = self._main(self.warmup_argv, self.workdir / "warmup")
        if rc != 0:
            raise RuntimeError(f"warm-up op exited with code {rc}")

    def op(self, i: int, key: int):
        out = self.workdir / f"op{i:05d}"
        return out, self._main(self.argv, out)

    def summary(self, result) -> dict:
        out, rc = result
        return {"dir": str(out), "rc": rc}


class SureSmall:
    root = API_ROOT

    def __init__(self, params: dict, seed: int):
        self.pool = [
            (cdcov.DataMatrix.from_array(x), cdcov.SymMat.from_array(sigma0))
            for x, sigma0 in inputs.sure_pool(params, seed)
        ]
        self.grid = np.arange(params["grid_min"], params["grid_max"] + 1, dtype=np.int64)
        self.distinct_inputs = len(self.pool)

    def warmup(self) -> None:
        self.op(0, 0)

    def op(self, i: int, key: int):
        x, sigma0 = self.pool[key % self.distinct_inputs]
        pair = cdcov.cov_pair(x)
        curve = cdcov.select_k(pair, self.grid)
        risk = cdcov.sure.cd_risk_curve(pair.mle, sigma0, self.grid)
        return curve, risk

    def summary(self, result) -> dict:
        curve, risk = result
        digest = hashlib.sha256(np.asarray(curve.sure_values).tobytes() + np.asarray(risk).tobytes())
        return {"k_hat": int(curve.k_hat), "digest": digest.hexdigest()}


def _flags(params: dict, keys: tuple[str, ...]) -> list[str]:
    argv = []
    for key in keys:
        value = params[key]
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, str(value)]
    return argv


def make(name: str, params: dict, seed: int, workdir: Path):
    """Set up workload ``name``: write its inputs under ``workdir``."""
    if name == "cell-p250":
        keys = ("setting", "n", "p", "ktr", "s", "methods", "replicates", "grid_step", "k_opt", "threads")
        return CliWorkload(["simulate", *_flags(params, keys), "--seed", str(seed)], workdir)
    if name == "estimate-p1000":
        data, small = workdir / "data.csv", workdir / "warmup.csv"
        inputs.write_csv(inputs.estimate_data(params, seed), data)
        inputs.write_csv(inputs.estimate_data(params, seed, warmup=True), small)
        flags = ["--method", "cd", *_flags(params, ("grid_step",))]
        return CliWorkload(["estimate", "--input", str(data), *flags], workdir, ["estimate", "--input", str(small), *flags])
    if name == "sure-small":
        return SureSmall(params, seed)
    if name == "oracle-check":
        return CliWorkload(["oracle-check", *_flags(params, ("p", "k", "samples")), "--seed", str(seed)], workdir)
    raise ValueError(f"unknown workload {name!r}")
