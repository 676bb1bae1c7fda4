"""cdcov benchmark: time one workload and check every op's outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Run it from the root of a checkout; it imports cdcov from ``src``. The
workloads and their parameters are in ``perfbench/workloads.json``.

A run starts ``CHILDREN`` fresh child processes one after another (one
process at a time, no worker threads, BLAS at one thread). Each imports
cdcov, makes the inputs from the seed, runs one untimed warm-up op, then
times ops in a closed loop until the loop has run for its share of what
is left of the ``S`` seconds (at least one op). ``setup_s`` is the
median over the children of the time from spawning the process to its
first timed op; ``ops_per_s`` is the ops of all children over the
summed wall time of their timed loops, and ``op_s_p50`` the median op
of all children. The parent then checks every op's outputs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each child spends half its budget on untraced ops and
half on the same inputs traced, and the line carries the per-layer
metrics and the tracing overhead. The line before it is a
JSON detail record: environment (BLAS, numpy, Python, thread variables,
CPU count), sample counts, op_s_p90 where a run has at least 100 ops,
fail_frac and the first failure reasons. Spans of a traced run are
written to ``.bench_work/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from child import OPS_FILE, THREAD_VARS

HERE = Path(__file__).resolve().parent

CHILDREN = 3
# Whole-run limit; a run normally takes well under a minute.
DEADLINE_S = 170.0
WORK = Path(".bench_work")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}
TRACE_METRICS = {"trace.op_s_p50": "s", "trace.untraced_op_s_p50": "s", "trace.overhead_s": "s"}


class BenchError(RuntimeError):
    """Set-up failed: no result can be given."""


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def _spawn(cfg: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({key: "1" for key in THREAD_VARS})
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    cfg = dict(cfg, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"child process exited with code {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, params: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    try:
        results = []
        ops = []
        spent = 0.0
        for k in range(CHILDREN):
            cfg = {
                "workload": name,
                "params": params,
                "seed": seed,
                # the children share the run's op-time budget
                "seconds": (seconds - spent) / (CHILDREN - k),
                "trace": trace,
                "workdir": str(run_dir / f"child{k}"),
                "trace_file": str(WORK / "traces" / f"{name}-seed{seed}-child{k}.json"),
            }
            results.append(_spawn(cfg, deadline))
            spent += sum(loop["s"] for loop in results[-1]["loops"])
            with open(Path(cfg["workdir"]) / OPS_FILE) as f:
                ops += [json.loads(line) for line in f]
        reasons = checks.check(name, params, seed, ops)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(reason is not None for reason in reasons)
    untraced = [op["s"] for op in ops if not op["traced"]]
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "params": params,
        "environment": results[0]["env"],
        "samples": {"children": CHILDREN, "ops": len(ops), "untraced_ops": len(untraced)},
        "fail_frac": failed / len(ops),
        "failures": sorted({r for r in reasons if r is not None})[:5],
    }
    if len(untraced) >= 100:
        detail["op_s_p90"] = _metric(statistics.quantiles(untraced, n=10)[-1], "s")
    if trace:
        traced = [op["s"] for op in ops if op["traced"]]
        metrics = {k: _metric(v, u) for k, (v, u) in tracing.per_layer([r["totals"] for r in results], len(traced)).items()}
        p50_traced = statistics.median(traced)
        p50_untraced = statistics.median(untraced)
        for key, value in zip(TRACE_METRICS, (p50_traced, p50_untraced, p50_traced - p50_untraced)):
            metrics[key] = _metric(value, TRACE_METRICS[key])
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "ops_per_s": len(untraced) / sum(loop["s"] for r in results for loop in r["loops"] if not loop["traced"]),
            "op_s_p50": statistics.median(untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        metrics = {key: _metric(values[key], unit) for key, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0, help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(workloads) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        try:
            result, detail = run_workload(name, workloads[name]["params"], args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            for key, m in result["metrics"].items():
                print(f"{name:16s} {key:40s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(detail))
        print(json.dumps(result))
        correct &= result["correct"]
    return 0 if correct or args.workload != "all" else 3


if __name__ == "__main__":
    raise SystemExit(main())
