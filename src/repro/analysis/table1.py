"""Table I: abort rate of nested transactions.

The paper's quantity (§IV-B): *nested transaction aborts caused by a
parent transaction's abort, divided by total nested transaction aborts*,
measured for RTS and plain TFA under low (90% read) and high (10% read)
contention, on the full deployment, ten thousand transactions, with the
number of nested transactions per transaction randomly decided.

``run_table1`` regenerates the measured table; ``PAPER_TABLE1`` embeds
the published numbers for the side-by-side comparison EXPERIMENTS.md
records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.render import render_table
from repro.analysis.scales import BENCHMARKS, CONTENTION, SCALES, Scale
from repro.core.config import ClusterConfig, SchedulerKind
from repro.par import CellSpec, run_grid

__all__ = ["PAPER_TABLE1", "run_table1", "format_table1"]

#: Published Table I values: benchmark -> (contention, scheduler) -> rate.
PAPER_TABLE1: Dict[str, Dict[str, float]] = {
    "vacation": {"low/rts": 0.256, "low/tfa": 0.555, "high/rts": 0.291, "high/tfa": 0.675},
    "bank":     {"low/rts": 0.215, "low/tfa": 0.464, "high/rts": 0.233, "high/tfa": 0.637},
    "ll":       {"low/rts": 0.144, "low/tfa": 0.376, "high/rts": 0.179, "high/tfa": 0.432},
    "rbtree":   {"low/rts": 0.137, "low/tfa": 0.322, "high/rts": 0.224, "high/tfa": 0.451},
    "bst":      {"low/rts": 0.111, "low/tfa": 0.294, "high/rts": 0.175, "high/tfa": 0.374},
    "dht":      {"low/rts": 0.128, "low/tfa": 0.313, "high/rts": 0.199, "high/tfa": 0.392},
}


def run_table1(
    scale: str | Scale = "quick",
    seed: int = 1,
    benchmarks: Optional[List[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Measure Table I; returns one row per benchmark.

    The cells run through :func:`repro.par.run_grid`: ``jobs`` worker
    processes, results cached under ``cache_dir``, rows unchanged.
    """
    preset = SCALES[scale] if isinstance(scale, str) else scale
    grid = [
        (bench, contention, sched)
        for bench in benchmarks or BENCHMARKS
        for contention in CONTENTION
        for sched in (SchedulerKind.RTS, SchedulerKind.TFA)
    ]
    specs = [
        CellSpec(
            bench,
            ClusterConfig(
                num_nodes=preset.table_nodes, seed=seed,
                scheduler=sched, cl_threshold=4,
            ),
            read_fraction=CONTENTION[contention],
            workers_per_node=preset.workers_per_node,
            horizon=None,
            stop_after_commits=preset.table_commits,
        )
        for bench, contention, sched in grid
    ]
    rows: Dict[str, Dict[str, Any]] = {}
    for (bench, contention, sched), res in zip(grid, run_grid(specs, jobs, cache_dir)):
        row = rows.setdefault(bench, {"benchmark": bench})
        key = f"{contention}/{sched.value}"
        row[key] = res.nested_abort_rate
        row[f"{key}/paper"] = PAPER_TABLE1[bench][key]
    return list(rows.values())


def format_table1(rows: List[Dict[str, Any]]) -> str:
    """Paper-style rendering with measured and published values."""
    display = []
    for row in rows:
        display.append({
            "Benchmark": row["benchmark"],
            "Low RTS": f"{row['low/rts']:.1%} (paper {row['low/rts/paper']:.1%})",
            "Low TFA": f"{row['low/tfa']:.1%} (paper {row['low/tfa/paper']:.1%})",
            "High RTS": f"{row['high/rts']:.1%} (paper {row['high/rts/paper']:.1%})",
            "High TFA": f"{row['high/tfa']:.1%} (paper {row['high/tfa/paper']:.1%})",
        })
    return render_table(
        display,
        ["Benchmark", "Low RTS", "Low TFA", "High RTS", "High TFA"],
        title="Table I — Abort rate of nested transactions "
              "(parent-caused / total nested aborts)",
    )
