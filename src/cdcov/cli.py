"""Command-line front end tying the estimators into reproducible runs.

Every subcommand resolves its configuration from an optional JSON file
plus flags (flags win), writes its numeric artifacts under --out, and
records a manifest with the fully resolved configuration. Re-running a
subcommand with ``--config <out>/manifest.json`` reproduces every numeric
output byte for byte; only the manifest's timestamps differ.

Exit codes: 0 success; 2 invalid input, that is every ``UsageError`` and
every ``InvalidInputError``, whether a flag, a config value or an input
file is at fault and whether this module or the library finds it; 1 a
runtime failure: a ``NumericalError``, a cell that failed on skipped
replicates, or an ``OSError``. The library checks each precondition;
this module checks only what the library cannot see.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import AtConfig, PoetConfig
from .errors import CdcovError, InvalidInputError, UsageError
from .haar import haar_mc_oracle
from .matrices import (
    RngSeed,
    SymMat,
    add_to_diagonal,
    center_columns,
    cov_pair,
    load_data_matrix,
    load_sym_mat,
    save_sym_mat,
)
from .reporting import emit_plot_data, records_from_csv, records_to_csv, render_table, write_csv
from .simulate import BenchRecord, SimConfig, fit, risk_oracle, sparsity_sweep
from .sure import default_k_grid, select_k

__all__ = ["main"]


@dataclass(frozen=True)
class Field:
    type: type
    default: object = None
    required: bool = False
    help: str = ""


_COMMON_SIM_FIELDS = {
    "setting": Field(int, 1, help="simulation setting (1 or 2)"),
    "n": Field(int, required=True, help="sample size"),
    "p": Field(int, required=True, help="ambient dimension"),
    "ktr": Field(int, required=True, help="true factor count"),
    "replicates": Field(int, required=True, help="replicate count"),
    "seed": Field(int, required=True, help="root seed (no silent default)"),
    "stream": Field(int, 0, help="root stream id"),
    "methods": Field(str, "cd,at,poet", help="comma-separated methods"),
    "sigma0_sq": Field(float, 1.0, help="setting-1 idiosyncratic variance"),
    "ar_error_var": Field(float, 0.4, help="setting-2 AR(1) error variance"),
    "ar_coef": Field(float, 0.1, help="setting-2 AR(1) coefficient"),
    "ar_variance_mode": Field(str, "innovation", help="AR variance reading: innovation|marginal"),
    "grid_step": Field(int, 10, help="SURE k-grid step"),
    "delta_min": Field(float, 0.05, help="smallest AT delta"),
    "delta_max": Field(float, 5.0, help="largest AT delta"),
    "delta_count": Field(int, 50, help="AT delta grid size (log-spaced)"),
    "folds": Field(int, 5, help="AT cross-validation folds"),
    "poet_factors": Field(int, help="POET factor count (default: ktr)"),
    "k_opt": Field(bool, False, help="also compute the oracle k_opt"),
    "threads": Field(int, 1, help="replicate thread cap"),
}

SCHEMAS: dict[str, dict[str, Field]] = {
    "simulate": {**_COMMON_SIM_FIELDS, "s": Field(float, required=True, help="sparsity fraction")},
    "sweep": {**_COMMON_SIM_FIELDS, "s_list": Field(str, required=True, help="comma-separated sparsity values")},
    "estimate": {
        "method": Field(str, required=True, help="cd|at|poet|sample"),
        "input": Field(str, required=True, help="data CSV (rows=variables, cols=observations)"),
        "header": Field(bool, False, help="input CSV has a header row"),
        "k": Field(int, help="CD compressed dimension (default: SURE-selected)"),
        "grid_step": Field(int, 10, help="SURE k-grid step"),
        "delta_grid": Field(str, help="explicit comma-separated AT delta grid"),
        "delta_min": Field(float, 0.05),
        "delta_max": Field(float, 5.0),
        "delta_count": Field(int, 50),
        "folds": Field(int, 5),
        "factors": Field(int, help="POET factor count"),
        "seed": Field(int, help="required for at/poet (cross-validation folds)"),
        "stream": Field(int, 0),
    },
    "sure": {
        "input": Field(str, required=True),
        "header": Field(bool, False),
        "grid_min": Field(int, help="smallest k (default: grid step)"),
        "grid_max": Field(int, help="largest k (default: p)"),
        "grid_step": Field(int, 10),
    },
    "risk-oracle": {
        "sigma0": Field(str, required=True, help="CSV with the true covariance"),
        "n": Field(int, required=True),
        "reps": Field(int, required=True),
        "seed": Field(int, required=True),
        "stream": Field(int, 0),
        "grid_min": Field(int),
        "grid_max": Field(int),
        "grid_step": Field(int, 10),
        "convention": Field(str, "mle", help="sample covariance fed to the CD map: mle|unbiased"),
    },
    "oracle-check": {
        "p": Field(int, required=True),
        "k": Field(int, required=True),
        "samples": Field(int, required=True),
        "seed": Field(int, required=True),
        "stream": Field(int, 0),
    },
    "render": {
        "records": Field(str, required=True, help="records CSV from simulate/sweep"),
        "plot_data": Field(bool, False, help="also write long-format plot data"),
    },
}


def parse_config(schema: dict[str, Field], file_cfg: dict, flag_cfg: dict) -> dict:
    """Merge file and flag values over schema defaults; flags win.

    Unknown file keys are rejected by name; missing required keys and type
    mismatches raise :class:`UsageError`. A JSON boolean fits only a bool
    key, and a float fits an int key only when it is integral (250.0 reads
    as 250), so no number is silently truncated.
    """
    for key in file_cfg:
        if key not in schema:
            raise UsageError(f"unknown config key {key!r}")
    resolved: dict = {}
    for key, field in schema.items():
        value = field.default
        if key in file_cfg and file_cfg[key] is not None:
            value = file_cfg[key]
        if key in flag_cfg and flag_cfg[key] is not None:
            value = flag_cfg[key]
        if value is None:
            if field.required:
                raise UsageError(f"missing required config key {key!r}")
            resolved[key] = None
            continue
        try:
            if field.type is bool:
                if not isinstance(value, bool):
                    raise ValueError("expected a boolean")
            elif isinstance(value, bool) or (
                field.type is int and isinstance(value, float) and not value.is_integer()
            ):
                raise ValueError(f"expected {field.type.__name__}, got {value!r}")
            resolved[key] = field.type(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    return resolved


def _load_file_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            data = json.load(f)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    # A manifest from a previous run is a valid config source.
    if "config" in data and "command" in data:
        data = data["config"]
        if not isinstance(data, dict):
            raise UsageError(f"config file {path}: manifest has a malformed config block")
    return data


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


class _Run:
    """Collects artifacts and writes the manifest for one subcommand run."""

    def __init__(self, command: str, config: dict, out: Path):
        self.command = command
        self.config = config
        self.out = out
        self.artifacts: list[str] = []
        self.timings: dict[str, float] = {}
        self.started = _utc_now()
        out.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out / name

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config": self.config,
            "seed": {
                "seed": self.config.get("seed"),
                "stream_id": self.config.get("stream", 0),
            },
            "started_utc": self.started,
            "finished_utc": _utc_now(),
            "timings": self.timings,
            "artifacts": sorted(self.artifacts),
            "version": __version__,
        }
        _write_json(self.out / "manifest.json", manifest)


def _at_config(cfg: dict) -> AtConfig:
    explicit = cfg.get("delta_grid")
    if explicit:
        try:
            grid = tuple(float(v) for v in explicit.split(",") if v.strip())
        except ValueError as exc:
            raise UsageError(f"delta_grid: {exc}") from exc
    else:
        grid = tuple(
            float(v) for v in np.geomspace(cfg["delta_min"], cfg["delta_max"], cfg["delta_count"])
        )
    return AtConfig(delta_grid=grid, folds=cfg["folds"])


def _grid_from(cfg: dict, p: int) -> np.ndarray:
    """The k grid of a subcommand: grid_step, and grid_min / grid_max where it has them."""
    return default_k_grid(p, cfg["grid_step"], cfg.get("grid_min"), cfg.get("grid_max"))


def _sim_records(cfg: dict, s_values: list[float]) -> list[BenchRecord]:
    """Records of one cell per sparsity value, as ``simulate`` and ``sweep`` write them."""
    base = SimConfig(
        setting=cfg["setting"],
        n=cfg["n"],
        p=cfg["p"],
        ktr=cfg["ktr"],
        s=s_values[0],
        replicates=cfg["replicates"],
        seed=RngSeed(cfg["seed"], cfg["stream"]),
        sigma0_sq=cfg["sigma0_sq"],
        ar_error_var=cfg["ar_error_var"],
        ar_coef=cfg["ar_coef"],
        ar_variance_mode=cfg["ar_variance_mode"],
    )
    return sparsity_sweep(
        base,
        s_values,
        [m.strip() for m in cfg["methods"].split(",") if m.strip()],
        k_grid=_grid_from(cfg, base.p),
        at_config=_at_config(cfg),
        poet_factors=cfg["poet_factors"],
        compute_k_opt=cfg["k_opt"],
        threads=cfg["threads"],
    )


def _cmd_simulate(cfg: dict, run: _Run) -> None:
    records_to_csv(_sim_records(cfg, [cfg["s"]]), run.path("records.csv"))


def _cmd_sweep(cfg: dict, run: _Run) -> None:
    s_values = [float(v) for v in cfg["s_list"].split(",") if v.strip()]
    if not s_values:
        raise UsageError("s_list is empty")
    records = _sim_records(cfg, s_values)
    records_to_csv(records, run.path("records.csv"))
    emit_plot_data(records, run.path("plot_data.csv"))


def _cmd_estimate(cfg: dict, run: _Run) -> None:
    method, factors = cfg["method"], cfg["factors"]
    if method in ("at", "poet") and cfg["seed"] is None:
        raise UsageError(f"method {method!r} needs --seed for its cross-validation folds")
    if method == "poet" and factors is None:
        raise UsageError("method 'poet' needs --factors")
    x = center_columns(load_data_matrix(cfg["input"], header=cfg["header"]))
    pair = cov_pair(x)
    # build only what the method reads: a k grid needs p >= 2, which the other
    # fits do not, and the AT grid's np.geomspace faults in numpy code pages
    # that raise a cd run's peak RSS by about 0.25 MB
    k_grid = _grid_from(cfg, x.p) if method == "cd" and cfg["k"] is None else None
    at_config = _at_config(cfg) if method in ("at", "poet") else None
    poet_config = PoetConfig(factors, at_config) if method == "poet" else None
    seed = RngSeed(cfg["seed"], cfg["stream"]) if cfg["seed"] is not None else None
    t0 = time.perf_counter()
    est, chosen = fit(
        method,
        pair,
        seed=seed,
        k_grid=k_grid,
        k=cfg["k"],
        at_config=at_config,
        poet_config=poet_config,
    )
    info: dict = {"method": method, "p": x.p, "n": x.n, **chosen}
    if method == "poet":
        info["factors"] = factors
    # wall-clock timings live in the manifest, keeping the numeric
    # artifacts byte-reproducible across reruns
    run.timings["fit_s"] = round(time.perf_counter() - t0, 6)
    save_sym_mat(est, run.path("estimate.csv"))
    _write_json(run.path("metadata.json"), info)


def _cmd_sure(cfg: dict, run: _Run) -> None:
    x = center_columns(load_data_matrix(cfg["input"], header=cfg["header"]))
    pair = cov_pair(x)
    curve = select_k(pair, _grid_from(cfg, x.p))
    write_csv(
        run.path("sure_curve.csv"),
        ("k", "sure", "discrepancy", "optimism"),
        zip(curve.k_grid, curve.sure_values, curve.discrepancy, curve.optimism),
    )
    _write_json(
        run.path("sure.json"),
        {
            "p": curve.p,
            "n": curve.n,
            "k_grid": [int(k) for k in curve.k_grid],
            "sure_values": [float(v) for v in curve.sure_values],
            "k_hat": curve.k_hat,
            "offset_estimate": curve.offset_estimate,
        },
    )


def _cmd_risk_oracle(cfg: dict, run: _Run) -> None:
    sigma0 = load_sym_mat(cfg["sigma0"])
    curve = risk_oracle(
        sigma0,
        cfg["n"],
        _grid_from(cfg, sigma0.dim),
        cfg["reps"],
        RngSeed(cfg["seed"], cfg["stream"]),
        convention=cfg["convention"],
    )
    write_csv(run.path("risk_curve.csv"), ("k", "risk"), zip(curve.k_grid, curve.risk_values))
    _write_json(run.path("risk.json"), {"k_opt": curve.k_opt, "replicates": curve.replicates})


def _cmd_oracle_check(cfg: dict, run: _Run) -> None:
    seed = RngSeed(cfg["seed"], cfg["stream"])
    rng = seed.generator(2**40)  # test-matrix stream, disjoint from the chunk streams
    a = rng.standard_normal((cfg["p"], cfg["p"]))
    s = SymMat(add_to_diagonal(a @ a.T / cfg["p"], 0.5))
    report = haar_mc_oracle(s, cfg["k"], cfg["samples"], seed)
    payload = report.to_dict()
    payload.update({"p": cfg["p"], "k": cfg["k"]})
    _write_json(run.path("oracle_check.json"), payload)


def _cmd_render(cfg: dict, run: _Run) -> None:
    records = records_from_csv(cfg["records"])
    text = render_table(records)
    with open(run.path("table.txt"), "w") as f:
        f.write(text)
    records_to_csv(records, run.path("table.csv"))
    if cfg["plot_data"]:
        emit_plot_data(records, run.path("plot_data.csv"))
    sys.stdout.write(text)


_RUNNERS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    "sure": _cmd_sure,
    "risk-oracle": _cmd_risk_oracle,
    "oracle-check": _cmd_oracle_check,
    "render": _cmd_render,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdcov", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cdcov {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file (or a manifest from a previous run)")
        p.add_argument("--out", required=True, help="output directory")
        for key, field in schema.items():
            flag = "--" + key.replace("_", "-")
            if field.type is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None, help=field.help)
            else:
                p.add_argument(flag, dest=key, type=field.type, default=None, help=field.help)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    schema = SCHEMAS[args.command]
    try:
        file_cfg = _load_file_config(args.config)
        flag_cfg = {key: getattr(args, key) for key in schema}
        cfg = parse_config(schema, file_cfg, flag_cfg)
        run = _Run(args.command, cfg, Path(args.out))
        t0 = time.perf_counter()
        _RUNNERS[args.command](cfg, run)
        run.timings["command_s"] = round(time.perf_counter() - t0, 6)
        run.finish()
    except (UsageError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CdcovError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
