"""Result persistence and rendering: records CSV, text tables, plot data.

All CSV output uses '.' decimals and 17 significant digits, so files
round-trip float64 exactly and are byte-identical across reruns.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_type_hints

from .errors import InvalidInputError
from .matrices import fmt_float
from .simulate import BenchRecord

__all__ = [
    "records_to_csv",
    "records_from_csv",
    "render_table",
    "emit_plot_data",
    "write_csv",
]


def _cell_type(hint) -> type:
    """The type a records column is written and read as: ``int | None`` reads as int."""
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


# Records columns, in BenchRecord's field order, each with its cell type.
_HINTS = get_type_hints(BenchRecord)
_COLUMNS = {f.name: _cell_type(_HINTS[f.name]) for f in fields(BenchRecord)}

# The rendered table stacks a k-selection comparison over the norm panels.
_PANELS = ("k-selection", "operator-norm", "frobenius-norm")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The package's one CSV writer: a float cell as ``fmt_float``, None as an empty cell."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(fmt_float(v) if isinstance(v, float) else "" if v is None else v for v in row)


def records_to_csv(records: Sequence[BenchRecord], path: str | Path) -> None:
    write_csv(path, list(_COLUMNS), ([getattr(r, col) for col in _COLUMNS] for r in records))


def records_from_csv(path: str | Path) -> list[BenchRecord]:
    records = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != tuple(_COLUMNS):
            raise InvalidInputError(f"{path}: unexpected columns {reader.fieldnames}")
        for row in reader:
            kwargs = {col: None if row[col] == "" else kind(row[col]) for col, kind in _COLUMNS.items()}
            records.append(BenchRecord(**kwargs))
    return records


def _cell_lookup(records: Sequence[BenchRecord]):
    by_key: dict[tuple[str, int, int], BenchRecord] = {}
    for r in records:
        by_key[(r.method, r.ktr, r.p)] = r
    return by_key


def render_table(records: Sequence[BenchRecord]) -> str:
    """Fixed-width three-panel text table; missing cells render as an em dash.

    Columns form the (ktr, p) grid of the sorted values in ``records``;
    method rows keep their first-seen order.
    """
    if not records:
        raise InvalidInputError("cannot infer a table layout from zero records")
    methods = tuple(dict.fromkeys(r.method for r in records))
    by_key = _cell_lookup(records)
    p_values = sorted({r.p for r in records})
    columns = [(ktr, p) for ktr in sorted({r.ktr for r in records}) for p in p_values]

    label_w = max(12, *(len(m) for m in methods)) + 2
    col_w = 16

    def fmt_row(label: str, cells: list[str]) -> str:
        return label.ljust(label_w) + "".join(c.rjust(col_w) for c in cells)

    def stat_cell(r: BenchRecord | None, which: str) -> str:
        if r is None:
            return "—"
        mean = getattr(r, f"{which}_err_mean")
        se = getattr(r, f"{which}_err_se")
        return f"{mean:.2f} ({se:.2f})"

    lines: list[str] = []
    header_ktr = fmt_row("ktr", [str(ktr) for ktr, _ in columns])
    header_p = fmt_row("p", [str(p) for _, p in columns])
    rule = "-" * (label_w + col_w * len(columns))
    lines += [header_ktr, header_p, rule]

    for panel in _PANELS:
        lines.append(f"[{panel}]")
        if panel == "k-selection":
            for label, attr in (("k_opt", "k_opt"), ("k_sure", "k_hat_mode")):
                cells = []
                for ktr, p in columns:
                    r = by_key.get(("cd", ktr, p))
                    v = getattr(r, attr) if r is not None else None
                    cells.append("—" if v is None else str(v))
                lines.append(fmt_row(label, cells))
        else:
            which = "op" if panel == "operator-norm" else "fro"
            for method in methods:
                cells = [stat_cell(by_key.get((method, ktr, p)), which) for ktr, p in columns]
                lines.append(fmt_row(method.upper(), cells))
        lines.append(rule)
    return "\n".join(lines) + "\n"


def emit_plot_data(records: Sequence[BenchRecord], path: str | Path) -> None:
    """Long-format CSV (s, method, norm, mean, se) for external plotting."""
    rows = (
        (r.s, r.method, norm, mean, se)
        for r in records
        for norm, mean, se in (("op", r.op_err_mean, r.op_err_se), ("fro", r.fro_err_mean, r.fro_err_se))
    )
    write_csv(path, ("s", "method", "norm", "mean", "se"), rows)
