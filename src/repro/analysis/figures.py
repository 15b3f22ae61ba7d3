"""Figures 4 and 5: transactional throughput vs node count.

One panel per benchmark; three series per panel (RTS, TFA, TFA+Backoff);
Figure 4 runs low contention (90% reads), Figure 5 high contention (10%
reads).  ``run_figure`` returns the raw series; ``format_figure`` renders
the per-panel tables the harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.render import render_ascii_chart, render_series
from repro.analysis.scales import BENCHMARKS, CONTENTION, SCALES, Scale
from repro.core.config import ClusterConfig, SchedulerKind
from repro.core.experiment import ExperimentResult
from repro.par import CellSpec, run_grid

__all__ = ["FigureData", "format_figure", "run_figure"]

SCHEDULER_ORDER = (SchedulerKind.RTS, SchedulerKind.TFA, SchedulerKind.TFA_BACKOFF)


@dataclass
class FigureData:
    """Measured series for one figure (4 or 5)."""

    figure: str
    contention: str
    node_counts: Tuple[int, ...]
    #: benchmark -> scheduler value -> throughput list (aligned to node_counts)
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    #: every underlying experiment result, for drill-down
    results: List[ExperimentResult] = field(default_factory=list)

    def speedup(self, benchmark: str, baseline: str) -> float:
        """Mean over node counts of RTS throughput / baseline throughput."""
        rts = self.series[benchmark]["rts"]
        base = self.series[benchmark][baseline]
        ratios = [r / b for r, b in zip(rts, base) if b > 0]
        return sum(ratios) / len(ratios) if ratios else 0.0


def run_figure(
    figure: str,
    scale: str | Scale = "quick",
    seed: int = 1,
    benchmarks: Optional[List[str]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> FigureData:
    """Regenerate Figure 4 ("fig4", low contention) or 5 ("fig5", high).

    The cells run through :func:`repro.par.run_grid`: ``jobs`` worker
    processes, results cached under ``cache_dir``, series unchanged.
    """
    contention = {"fig4": "low", "fig5": "high"}[figure]
    read_fraction = CONTENTION[contention]
    preset = SCALES[scale] if isinstance(scale, str) else scale
    data = FigureData(figure=figure, contention=contention,
                      node_counts=tuple(preset.node_counts))
    specs = [
        CellSpec(
            bench,
            ClusterConfig(num_nodes=nodes, seed=seed, scheduler=sched, cl_threshold=4),
            read_fraction=read_fraction,
            workers_per_node=preset.workers_per_node,
            horizon=preset.horizon,
        )
        for bench in benchmarks or BENCHMARKS
        for nodes in preset.node_counts
        for sched in SCHEDULER_ORDER
    ]
    for spec, res in zip(specs, run_grid(specs, jobs, cache_dir)):
        series = data.series.setdefault(
            spec.workload, {s.value: [] for s in SCHEDULER_ORDER}
        )
        series[spec.config.scheduler.value].append(res.throughput)
        data.results.append(res)
    return data


def format_figure(data: FigureData) -> str:
    """Render all panels of a figure as text tables."""
    number = {"fig4": "4", "fig5": "5"}[data.figure]
    blocks = []
    for bench, series in data.series.items():
        title = (
            f"Figure {number} ({bench}) — throughput (commits/s) at "
            f"{data.contention} contention"
        )
        blocks.append(render_series(title, "nodes", data.node_counts, series))
        blocks.append(
            render_ascii_chart(
                f"  shape ({bench}):", list(data.node_counts), series
            )
        )
    return "\n\n".join(blocks)
