"""Design-choice ablations (beyond the paper's own figures).

* **A1 — CL threshold sweep**: §IV-A notes a throughput peak at some CL
  threshold, chosen per deployment; we sweep fixed thresholds and the
  adaptive controller.
* **A2 — backoff policy**: expected-time queue backoffs (RTS) vs
  randomised exponential (TFA+Backoff) vs none (TFA), at fixed workload.
* **A3 — network delay band**: the paper's static 1-50 ms links vs
  uniform-fast (1 ms) and uniform-slow (50 ms) networks.
* **A4 — nesting model**: closed vs flat nesting (§I's trade: flat
  nesting rolls back the whole transaction on any conflict).
* **A5 — conflict scope**: who a lost conflict kills (root / level /
  mixed — see ``ClusterConfig.conflict_scope``).
* **A7 — abort overhead**: framework rollback-cost sensitivity.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.render import render_table
from repro.analysis.scales import SCALES, Scale
from repro.core.config import ClusterConfig, SchedulerKind
from repro.dstm.transaction import NestingModel
from repro.net.topology import MS
from repro.par import CellSpec, run_grid

__all__ = [
    "run_threshold_sweep",
    "run_backoff_ablation",
    "run_network_ablation",
    "run_nesting_ablation",
    "run_conflict_scope_ablation",
    "ALL_ABLATIONS",
]


def _spec(
    bench: str,
    cfg: ClusterConfig,
    read_fraction: float,
    preset: Scale,
) -> CellSpec:
    return CellSpec(
        bench, cfg, read_fraction=read_fraction,
        workers_per_node=preset.workers_per_node, horizon=preset.horizon,
    )


def run_threshold_sweep(
    scale: str | Scale = "quick",
    seed: int = 1,
    bench: str = "bank",
    thresholds: List[Any] = (1, 2, 3, 4, 6, 8, 12, "adaptive"),
    jobs: int = 1,
    cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A1: RTS throughput/aborts across CL thresholds, high contention."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    nodes = preset.table_nodes
    specs = [
        _spec(bench, ClusterConfig(
            num_nodes=nodes, seed=seed, scheduler=SchedulerKind.RTS,
            cl_threshold=None if threshold == "adaptive" else int(threshold),
        ), 0.1, preset)
        for threshold in thresholds
    ]
    rows = []
    for threshold, res in zip(thresholds, run_grid(specs, jobs, cache_dir)):
        rows.append({
            "threshold": threshold,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
            "nested_abort_rate": round(res.nested_abort_rate, 3),
        })
    return rows


def run_backoff_ablation(
    scale: str | Scale = "quick", seed: int = 1, bench: str = "bank",
    jobs: int = 1, cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A2: the three schedulers' policies head-to-head, both contentions."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    grid = [(contention, rf, sched)
            for contention, rf in (("low", 0.9), ("high", 0.1))
            for sched in SchedulerKind]
    specs = [
        _spec(bench, ClusterConfig(num_nodes=preset.table_nodes, seed=seed,
                                   scheduler=sched, cl_threshold=4), rf, preset)
        for _contention, rf, sched in grid
    ]
    rows = []
    for (contention, _rf, sched), res in zip(grid, run_grid(specs, jobs, cache_dir)):
        rows.append({
            "contention": contention,
            "policy": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
            "messages": res.messages_sent,
        })
    return rows


def run_network_ablation(
    scale: str | Scale = "quick", seed: int = 1, bench: str = "ll",
    jobs: int = 1, cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A3: sensitivity to the link-delay band."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    bands = {
        "paper 1-50ms": (1 * MS, 50 * MS),
        "uniform 1ms": (1 * MS, 1 * MS + 1e-9),
        "uniform 50ms": (50 * MS, 50 * MS + 1e-9),
        "wan 10-200ms": (10 * MS, 200 * MS),
    }
    grid = [(name, lo, hi, sched)
            for name, (lo, hi) in bands.items()
            for sched in (SchedulerKind.RTS, SchedulerKind.TFA)]
    specs = [
        _spec(bench, ClusterConfig(
            num_nodes=preset.table_nodes, seed=seed, scheduler=sched,
            cl_threshold=4, min_link_delay=lo, max_link_delay=hi,
        ), 0.1, preset)
        for _name, lo, hi, sched in grid
    ]
    rows = []
    for (name, _lo, _hi, sched), res in zip(grid, run_grid(specs, jobs, cache_dir)):
        rows.append({
            "band": name,
            "scheduler": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
        })
    return rows


def run_nesting_ablation(
    scale: str | Scale = "quick", seed: int = 1, bench: str = "bank",
    jobs: int = 1, cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A4: closed vs flat nesting under RTS and TFA."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    grid = [(nesting, sched)
            for nesting in (NestingModel.CLOSED, NestingModel.FLAT)
            for sched in (SchedulerKind.RTS, SchedulerKind.TFA)]
    specs = [
        _spec(bench, ClusterConfig(num_nodes=preset.table_nodes, seed=seed,
                                   scheduler=sched, cl_threshold=4,
                                   nesting=nesting), 0.1, preset)
        for nesting, sched in grid
    ]
    rows = []
    for (nesting, sched), res in zip(grid, run_grid(specs, jobs, cache_dir)):
        rows.append({
            "nesting": nesting.value,
            "scheduler": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
            "nested_abort_rate": round(res.nested_abort_rate, 3),
        })
    return rows


def run_conflict_scope_ablation(
    scale: str | Scale = "quick", seed: int = 1, bench: str = "bank",
    jobs: int = 1, cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A5: busy-conflict victim semantics."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    grid = [(scope, sched)
            for scope in ("root", "mixed", "level")
            for sched in (SchedulerKind.RTS, SchedulerKind.TFA)]
    specs = [
        _spec(bench, ClusterConfig(num_nodes=preset.table_nodes, seed=seed,
                                   scheduler=sched, cl_threshold=4,
                                   conflict_scope=scope), 0.1, preset)
        for scope, sched in grid
    ]
    rows = []
    for (scope, sched), res in zip(grid, run_grid(specs, jobs, cache_dir)):
        rows.append({
            "scope": scope,
            "scheduler": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
            "nested_abort_rate": round(res.nested_abort_rate, 3),
        })
    return rows


def run_abort_cost_ablation(
    scale: str | Scale = "quick", seed: int = 1, bench: str = "bank",
    jobs: int = 1, cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A7: framework abort-overhead sensitivity."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    grid = [(overhead, sched)
            for overhead in (0.0, 0.01, 0.05)
            for sched in (SchedulerKind.RTS, SchedulerKind.TFA)]
    specs = [
        _spec(bench, ClusterConfig(num_nodes=preset.table_nodes, seed=seed,
                                   scheduler=sched, cl_threshold=4,
                                   abort_overhead=overhead), 0.1, preset)
        for overhead, sched in grid
    ]
    rows = []
    for (overhead, sched), res in zip(grid, run_grid(specs, jobs, cache_dir)):
        rows.append({
            "abort_overhead_ms": overhead * 1e3,
            "scheduler": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
        })
    return rows


ALL_ABLATIONS = {
    "threshold": (run_threshold_sweep, "A1 — CL threshold sweep (bank, high contention)"),
    "backoff": (run_backoff_ablation, "A2 — scheduling policy head-to-head (bank)"),
    "network": (run_network_ablation, "A3 — link-delay band sensitivity (linked list)"),
    "nesting": (run_nesting_ablation, "A4 — closed vs flat nesting (bank)"),
    "conflict-scope": (run_conflict_scope_ablation, "A5 — conflict victim scope (bank)"),
    "abort-cost": (run_abort_cost_ablation, "A7 — framework abort-overhead sensitivity (bank, high contention)"),
}


def format_ablation(name: str, rows: List[Dict[str, Any]]) -> str:
    _fn, title = ALL_ABLATIONS[name]
    return render_table(rows, title=title)
