"""One child process of a benchmark run: set up, warm up, time ops.

run.py starts it as ``python child.py CONFIG_JSON`` from the checkout
root, with ``src`` on PYTHONPATH and BLAS pinned to one thread. The
config names the workload, its params and seed, the op-time budget,
whether to trace, the work directory, and the parent's monotonic clock
when it spawned this process (for set-up time). The child writes one
JSON line per op to ``ops.jsonl`` in its work directory, so its memory
does not grow with the op count, and prints one JSON line: set-up
seconds, peak RSS, the wall time of each timed loop, its environment
and, when tracing, the span totals. Outputs are checked by the parent,
so checking costs neither op time nor this process's memory.

When tracing, the child times half its budget of untraced ops, then the
same sequence of inputs traced, so the run gives both the tracing
overhead and a traced-versus-untraced output comparison.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPS_FILE = "ops.jsonl"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "thread_env": {key: os.environ.get(key) for key in THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started, in MiB.

    This is VmHWM, not ``ru_maxrss``: on Linux a process's ``ru_maxrss``
    starts at its parent's peak RSS, so it would count the benchmark's
    parent process, which grows as it reads the children's op records.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    cfg = json.loads(sys.argv[1])
    import cdcov

    src = Path.cwd().resolve() / "src"
    if Path(cdcov.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cdcov was imported from {cdcov.__file__}, not from {src}")
    import tracing
    import workloads

    workdir = Path(cfg["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(cfg["workload"], cfg["params"], cfg["seed"], workdir)
    wl.warmup()
    tracer = tracing.Tracer() if cfg["trace"] else None

    setup_s = time.monotonic() - cfg["spawned_at"]
    count = 0
    loops = []
    # A traced run times untraced ops first, then the same inputs traced.
    phases = [(False, cfg["seconds"] / 2), (True, cfg["seconds"] / 2)] if tracer else [(False, cfg["seconds"])]
    with open(workdir / OPS_FILE, "w") as records:
        for traced, budget in phases:
            if traced:
                tracer.install()
            key = 0
            start = time.perf_counter()
            while time.perf_counter() - start < budget or key == 0:
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.root(wl.root):
                            result = wl.op(count, key)
                    else:
                        result = wl.op(count, key)
                    error = None
                except Exception:  # a failing op is counted and the loop goes on
                    error = traceback.format_exc(limit=-3)
                elapsed = time.perf_counter() - t0
                record = {"s": elapsed, "traced": traced, "inputs": key % wl.distinct_inputs, "error": error}
                if error is None:
                    record.update(wl.summary(result))
                records.write(json.dumps(record) + "\n")
                count += 1
                key += 1
            loops.append({"traced": traced, "s": time.perf_counter() - start})

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "loops": loops,
        "env": environment(),
    }
    if tracer is not None:
        out["totals"] = tracer.totals()
        tracer.dump(cfg["trace_file"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
