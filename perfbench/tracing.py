"""Spans around the calls into each cdcov module, recorded from outside.

A :class:`Tracer` replaces each traced public function by a wrapper at
every name a cdcov module looks it up by (``cdcov.cli.select_k``,
``cdcov.simulate.select_k``, ``cdcov.baselines.adaptive_threshold``, the
package-level re-exports ...), so a traced op still runs the package's
own code path once :meth:`Tracer.install` has put the wrappers in. Spans
stay in memory until :meth:`Tracer.dump`.

Each span has a name, start, end and parent span; its self time is its
duration minus the part its child spans cover. Counters are computed at
the span from argument and result sizes, so they repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("matrices", "sure", "estimator", "baselines", "simulate", "haar", "cli")

# Span of a whole CLI op; its self time is the cli layer's (config,
# manifest, records CSV). API ops get a root span outside every layer.
CLI_ROOT = "cli.main"
API_ROOT = "bench.op"


def _array_bytes(obj, depth: int = 3) -> int:
    """Bytes of the numpy arrays reachable from ``obj`` through attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0 or not hasattr(obj, "__dict__"):
        return 0
    return sum(_array_bytes(v, depth - 1) for v in vars(obj).values())


def _count_select_k(c: dict, args: dict, result) -> None:
    grid = np.asarray(args.get("k_grid", ()))
    c["grid_points"] = int(grid.size)
    k_hat = getattr(result, "k_hat", None)
    if grid.size and k_hat is not None:
        c["k_hat_at_grid_max"] = int(k_hat == int(grid.max()))


def _count_cov_pair(c: dict, args: dict, result) -> None:
    c["out_bytes"] = _array_bytes(result)


def _count_save_sym_mat(c: dict, args: dict, result) -> None:
    path = args.get("path")
    if path is not None and os.path.exists(path):
        c["bytes"] = os.path.getsize(path)


def _count_cross_validate(c: dict, args: dict, result) -> None:
    grid = getattr(args.get("cfg"), "delta_grid", None)
    if grid:
        c["delta_at_grid_min"] = int(float(result) == min(grid))


def _count_haar(c: dict, args: dict, result) -> None:
    c["draws"] = int(args.get("samples", 0))
    c["resampled"] = int(getattr(result, "resampled", 0))


# (module, public function, counter computed from arguments and result)
TARGETS = (
    ("matrices", "center_columns", None),
    ("matrices", "cov_pair", _count_cov_pair),
    ("matrices", "load_data_matrix", None),
    ("matrices", "save_sym_mat", _count_save_sym_mat),
    ("matrices", "op_norm", None),
    ("sure", "select_k", _count_select_k),
    ("sure", "cd_risk_curve", None),
    ("estimator", "cd_estimate", None),
    ("baselines", "cross_validate_delta", _count_cross_validate),
    ("baselines", "hard_threshold_estimate", None),
    ("baselines", "adaptive_threshold", None),
    ("baselines", "poet", None),
    ("simulate", "run_cell", None),
    ("simulate", "make_sigma0", None),
    ("simulate", "draw_data", None),
    ("haar", "haar_mc_oracle", _count_haar),
)
SPAN_NAMES = tuple(f"{module}.{name}" for module, name, _ in TARGETS)


class Tracer:
    """Span recorder for one process; spans nest on a single thread."""

    def __init__(self) -> None:
        # span = [name, parent index or -1, start, end, op index, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []
        for module, _, _ in TARGETS:
            importlib.import_module(f"cdcov.{module}")
        modules = [m for key, m in sys.modules.items() if key == "cdcov" or key.startswith("cdcov.")]
        for module, name, counter in TARGETS:
            original = getattr(sys.modules[f"cdcov.{module}"], name)
            wrapper = self._wrap(f"{module}.{name}", original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, wrapper))

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self._op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(span[5], signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Put the wrappers in place of the traced functions."""
        for module, attr, wrapper in self._patches:
            setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def root(self, name: str):
        """Root span of one op."""
        self._op += 1
        span = self._open(name)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict:
        """Summed self seconds per span name and summed counters."""
        self_s = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                self_s[s[1]] -= s[3] - s[2]
        seconds: Counter = Counter()
        counts: Counter = Counter()
        for s, own in zip(self.spans, self_s):
            seconds[s[0]] += own
            counts[f"{s[0]}.calls"] += 1
            counts.update({f"{s[0]}.{key}": value for key, value in s[5].items()})
        return {"self_s": dict(seconds), "counts": dict(counts)}

    def dump(self, path) -> None:
        keys = ("name", "parent", "start", "end", "op", "counters")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


# per-layer count metric -> (summed span counter, unit)
PER_OP_COUNTS = {
    "sure.select_k.calls": ("sure.select_k.calls", "count"),
    "sure.select_k.grid_points": ("sure.select_k.grid_points", "count"),
    "matrices.cov_pair.out_bytes": ("matrices.cov_pair.out_bytes", "bytes"),
    "matrices.save_sym_mat.bytes": ("matrices.save_sym_mat.bytes", "bytes"),
    "haar.draws": ("haar.haar_mc_oracle.draws", "count"),
    "haar.resampled": ("haar.haar_mc_oracle.resampled", "count"),
}
# quality metric -> (calls that hit the grid edge, calls)
EDGE_FRACTIONS = {
    "sure.k_hat_at_grid_max_frac": ("sure.select_k.k_hat_at_grid_max", "sure.select_k.calls"),
    "baselines.delta_at_grid_min_frac": (
        "baselines.cross_validate_delta.delta_at_grid_min",
        "baselines.cross_validate_delta.calls",
    ),
}


def per_layer(totals: list[dict], traced_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the children's :meth:`Tracer.totals`.

    Times are self seconds per op and counts are per op; a share is of
    the traced op time, and an edge fraction is over the calls it counts.
    """
    seconds: Counter = Counter()
    counts: Counter = Counter()
    for t in totals:
        seconds.update(t["self_s"])
        counts.update(t["counts"])
    ops = max(traced_ops, 1)
    op_s = sum(seconds.values()) / ops
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = (seconds[name] / ops, "s")
    for layer in LAYERS:
        if layer == "cli":
            layer_s = seconds[CLI_ROOT] / ops
        else:
            layer_s = sum(v for k, v in seconds.items() if k.startswith(layer + ".")) / ops
        out[f"{layer}.self.s"] = (layer_s, "s")
        out[f"{layer}.self.share"] = (layer_s / op_s if op_s > 0 else 0.0, "fraction")
    for name, (counter, unit) in PER_OP_COUNTS.items():
        out[name] = (counts[counter] / ops, unit)
    for name, (hits, calls) in EDGE_FRACTIONS.items():
        out[name] = (counts[hits] / counts[calls] if counts[calls] else 0.0, "fraction")
    return out
