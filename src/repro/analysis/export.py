"""Export experiment results as JSON or CSV.

The text renderers serve the terminal; downstream plotting (matplotlib,
gnuplot, a notebook) wants machine-readable series.  These helpers write
what :mod:`repro.analysis` measures — table rows or a
:class:`~repro.analysis.figures.FigureData` — to disk, and the CLI
exposes them via ``--export-dir``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.analysis.figures import FigureData

__all__ = ["export_rows", "figure_to_rows", "export_figure"]

PathLike = Union[str, Path]


def export_rows(
    rows: List[Dict[str, Any]],
    path: PathLike,
    fmt: str = "auto",
) -> Path:
    """Write dict-rows to ``path`` as JSON or CSV.

    ``fmt='auto'`` infers from the suffix (.json / .csv); the column set
    of a CSV is the union of all row keys, in first-seen order.
    """
    path = Path(path)
    if fmt == "auto":
        fmt = path.suffix.lstrip(".").lower() or "json"
    if fmt not in ("json", "csv"):
        raise ValueError(f"unsupported export format {fmt!r}")

    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_text(json.dumps(rows, indent=2, default=str) + "\n")
        return path

    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
    return path


def figure_to_rows(data: FigureData) -> List[Dict[str, Any]]:
    """Flatten a figure sweep into long-format rows
    (benchmark, scheduler, nodes, throughput) — the shape plotting
    libraries group-by naturally."""
    rows: List[Dict[str, Any]] = []
    for bench, series in data.series.items():
        for scheduler, ys in series.items():
            for nodes, throughput in zip(data.node_counts, ys):
                rows.append({
                    "figure": data.figure,
                    "contention": data.contention,
                    "benchmark": bench,
                    "scheduler": scheduler,
                    "nodes": nodes,
                    "throughput": throughput,
                })
    return rows


def export_figure(data: FigureData, path: PathLike, fmt: str = "auto") -> Path:
    """Write a figure sweep in long format."""
    return export_rows(figure_to_rows(data), path, fmt=fmt)
