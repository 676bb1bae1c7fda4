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
from .matrices import _csv_rows, fmt_float
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


# Records columns, in BenchRecord's field order, each with its cell type;
# only the optional ones (``int | None``) may be empty.
_HINTS = get_type_hints(BenchRecord)
_COLUMNS = {f.name: _cell_type(_HINTS[f.name]) for f in fields(BenchRecord)}
_OPTIONAL = {name for name, hint in _HINTS.items() if type(None) in get_args(hint)}

# The rendered table stacks a k-selection comparison over the norm panels.
_PANELS = ("k-selection", "operator-norm", "frobenius-norm")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Every CSV but estimate.csv (``save_sym_mat``'s): records, table, plot data, curves; a float as ``fmt_float``, None as empty."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(fmt_float(v) if isinstance(v, float) else "" if v is None else v for v in row)


def records_to_csv(records: Sequence[BenchRecord], path: str | Path) -> None:
    write_csv(path, list(_COLUMNS), ([getattr(r, col) for col in _COLUMNS] for r in records))


def _parse_cell(col: str, text: str):
    if text == "":
        if col in _OPTIONAL:
            return None
        raise ValueError(f"column {col!r} is empty")
    return _COLUMNS[col](text)


def records_from_csv(path: str | Path) -> list[BenchRecord]:
    """Records from a records CSV headed by its first nonblank row; a malformed row is an input error naming the file and line."""
    records = []
    rows = _csv_rows(path)
    _, header = next(rows, (None, None))
    if header != list(_COLUMNS):
        raise InvalidInputError(f"{path}: unexpected columns {header}")
    for line, row in rows:
        try:
            if len(row) != len(_COLUMNS):
                raise ValueError(f"expected {len(_COLUMNS)} cells, got {len(row)}")
            kwargs = {col: _parse_cell(col, text) for col, text in zip(_COLUMNS, row)}
        except ValueError as exc:
            raise InvalidInputError(f"{path}: bad record on line {line}: {exc}") from exc
        records.append(BenchRecord(**kwargs))
    return records


def render_table(records: Sequence[BenchRecord]) -> str:
    """Fixed-width three-panel text table; missing cells render as an em dash.

    Columns form the (ktr, p, s) grid of the sorted values in ``records``;
    method rows keep their first-seen order. Two records for one
    (method, s, ktr, p) cell, say from two settings or two values of n,
    are an input error rather than one hiding the other.
    """
    if not records:
        raise InvalidInputError("cannot infer a table layout from zero records")
    methods = tuple(dict.fromkeys(r.method for r in records))
    by_key: dict[tuple[str, int, int, float], BenchRecord] = {}
    for r in records:
        key = (r.method, r.ktr, r.p, r.s)
        if key in by_key:
            raise InvalidInputError(f"two records for the cell method={r.method}, s={r.s}, ktr={r.ktr}, p={r.p}")
        by_key[key] = r
    p_values = sorted({r.p for r in records})
    s_values = sorted({r.s for r in records})
    columns = [(ktr, p, s) for ktr in sorted({r.ktr for r in records}) for p in p_values for s in s_values]

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
    lines += [fmt_row(label, [str(v) for v in values]) for label, values in zip(("ktr", "p", "s"), zip(*columns))]
    rule = "-" * (label_w + col_w * len(columns))
    lines.append(rule)

    for panel in _PANELS:
        lines.append(f"[{panel}]")
        if panel == "k-selection":
            for label, attr in (("k_opt", "k_opt"), ("k_sure", "k_hat_mode")):
                cells = []
                for column in columns:
                    r = by_key.get(("cd", *column))
                    v = getattr(r, attr) if r is not None else None
                    cells.append("—" if v is None else str(v))
                lines.append(fmt_row(label, cells))
        else:
            which = "op" if panel == "operator-norm" else "fro"
            for method in methods:
                cells = [stat_cell(by_key.get((method, *column)), which) for column in columns]
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
