"""Design-choice ablations (beyond the paper's own figures).

* **A1 — CL threshold sweep**: §IV-A notes a throughput peak at some CL
  threshold, chosen per deployment; we sweep fixed thresholds and the
  adaptive controller.
* **A2 — backoff policy**: expected-time queue backoffs (RTS) vs
  randomised exponential (TFA+Backoff) vs none (TFA), at fixed workload.
* **A3 — network delay band**: the paper's static 1-50 ms links vs
  uniform-fast (1 ms) and uniform-slow (50 ms) networks.
* **A4 — nesting model**: closed vs flat vs open nesting (§I's three
  models; the open rows use Bank's compensating-transfer variant).
* **A5 — conflict scope**: who a lost conflict kills (root / level /
  mixed — see ``ClusterConfig.conflict_scope``).
* **A6 — contention manager**: holder-wins (paper) vs greedy-timestamp.
* **A7 — abort overhead**: framework rollback-cost sensitivity.
* **A8 — RTS admission**: Algorithm 3 literal vs economic calibration.
* **A9 — CC locator**: Arrow tree protocol vs home directory under
  synthetic migration churn.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.render import render_table
from repro.analysis.scales import SCALES, Scale
from repro.core.config import ClusterConfig, SchedulerKind
from repro.core.experiment import ExperimentResult
from repro.dstm.contention import WinnerPolicy
from repro.dstm.transaction import NestingModel
from repro.net.topology import MS
from repro.par import CellSpec, run_cells

__all__ = [
    "run_threshold_sweep",
    "run_backoff_ablation",
    "run_network_ablation",
    "run_nesting_ablation",
    "run_conflict_scope_ablation",
    "run_contention_manager_ablation",
    "ALL_ABLATIONS",
]


def _spec(
    bench: str,
    cfg: ClusterConfig,
    read_fraction: float,
    preset: Scale,
    workload_kwargs: Dict[str, Any] | None = None,
) -> CellSpec:
    return CellSpec(
        bench, cfg, read_fraction=read_fraction,
        workers_per_node=preset.workers_per_node, horizon=preset.horizon,
        workload_kwargs=workload_kwargs,
    )


def _run_grid(
    specs: List[CellSpec], jobs: int = 1, cache_dir: str | None = None
) -> List[ExperimentResult]:
    """Run an ablation's cells through repro.par, results in spec order.

    Every runner below funnels its grid through here, so ``--jobs`` and
    ``--cache-dir`` apply uniformly and rows come back in the same order
    the serial loops produced them (deterministic merge).
    """
    run = run_cells(specs, jobs=jobs, cache_dir=cache_dir)
    return [outcome.result for outcome in run.in_spec_order()]


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
    for threshold, res in zip(thresholds, _run_grid(specs, jobs, cache_dir)):
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
    for (contention, _rf, sched), res in zip(grid, _run_grid(specs, jobs, cache_dir)):
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
    for (name, _lo, _hi, sched), res in zip(grid, _run_grid(specs, jobs, cache_dir)):
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
    """A4: closed vs flat vs open nesting under RTS and TFA.

    The open rows run the Bank workload's open-nested transfer variant
    (legs commit globally, compensated by reverse transfers on parent
    abort) — the third nesting model §I describes.
    """
    preset = SCALES[scale] if isinstance(scale, str) else scale
    configs = [
        ("closed", NestingModel.CLOSED, {}),
        ("flat", NestingModel.FLAT, {}),
        ("open", NestingModel.CLOSED, {"open_nesting": True}),
    ]
    grid = [(label, nesting, wl_kwargs, sched)
            for label, nesting, wl_kwargs in configs
            for sched in (SchedulerKind.RTS, SchedulerKind.TFA)]
    specs = [
        _spec(bench, ClusterConfig(num_nodes=preset.table_nodes, seed=seed,
                                   scheduler=sched, cl_threshold=4,
                                   nesting=nesting),
              0.1, preset, workload_kwargs=wl_kwargs or None)
        for _label, nesting, wl_kwargs, sched in grid
    ]
    rows = []
    for (label, _nesting, _wl, sched), res in zip(
        grid, _run_grid(specs, jobs, cache_dir)
    ):
        rows.append({
            "nesting": label,
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
    for (scope, sched), res in zip(grid, _run_grid(specs, jobs, cache_dir)):
        rows.append({
            "scope": scope,
            "scheduler": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
            "nested_abort_rate": round(res.nested_abort_rate, 3),
        })
    return rows


def run_contention_manager_ablation(
    scale: str | Scale = "quick", seed: int = 1, bench: str = "bank",
    jobs: int = 1, cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A6: holder-wins (paper) vs greedy-timestamp dooming."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    grid = [(policy, sched)
            for policy in (WinnerPolicy.HOLDER_WINS, WinnerPolicy.GREEDY_TIMESTAMP)
            for sched in (SchedulerKind.RTS, SchedulerKind.TFA)]
    specs = [
        _spec(bench, ClusterConfig(num_nodes=preset.table_nodes, seed=seed,
                                   scheduler=sched, cl_threshold=4,
                                   winner_policy=policy), 0.1, preset)
        for policy, sched in grid
    ]
    rows = []
    for (policy, sched), res in zip(grid, _run_grid(specs, jobs, cache_dir)):
        rows.append({
            "winner_policy": policy.value,
            "scheduler": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
        })
    return rows


def run_admission_ablation(
    scale: str | Scale = "quick", seed: int = 1, bench: str = "bank",
    jobs: int = 1, cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A8: RTS execution-time admission rule (paper-literal vs economic)."""
    preset = SCALES[scale] if isinstance(scale, str) else scale
    grid = [(admission, rf, contention)
            for admission in ("paper", "economic")
            for rf, contention in ((0.9, "low"), (0.1, "high"))]
    specs = [
        _spec(bench, ClusterConfig(num_nodes=preset.table_nodes, seed=seed,
                                   scheduler=SchedulerKind.RTS, cl_threshold=4,
                                   rts_admission=admission), rf, preset)
        for admission, rf, _contention in grid
    ]
    rows = []
    for (admission, _rf, contention), res in zip(
        grid, _run_grid(specs, jobs, cache_dir)
    ):
        rows.append({
            "admission": admission,
            "contention": contention,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
            "messages_per_commit": round(
                res.messages_sent / max(res.commits, 1), 1
            ),
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
    for (overhead, sched), res in zip(grid, _run_grid(specs, jobs, cache_dir)):
        rows.append({
            "abort_overhead_ms": overhead * 1e3,
            "scheduler": sched.value,
            "throughput": res.throughput,
            "aborts": res.root_aborts,
        })
    return rows


def run_locator_ablation(
    scale: str | Scale = "quick",
    seed: int = 1,
    num_objects: int = 12,
    migrations_per_object: int = 12,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> List[Dict[str, Any]]:
    """A9: object-location strategies — home directory vs Arrow.

    Runs serially regardless of ``jobs``/``cache_dir`` (accepted for
    CLI uniformity): this ablation drives raw directory protocols, not
    experiment cells, so it has no cell key to cache under.

    Synthetic churn: objects migrate between uniformly random nodes.  The
    home-directory locator pays lookup+request round trips against a
    fixed home; Arrow pays tree-path finds with path reversal (requests
    from near the previous holder stay cheap).  Reported: mean
    location-to-grant latency and messages per migration.
    """
    from repro.analysis.arrow import ArrowDirectory, build_spanning_tree
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.net.topology import Topology
    from repro.sim import Environment, RngRegistry

    preset = SCALES[scale] if isinstance(scale, str) else scale
    n = preset.table_nodes
    rows: List[Dict[str, Any]] = []

    # --- Arrow ---
    env = Environment()
    rngs = RngRegistry(seed=seed)
    topo = Topology(n, rngs.stream("topology"))
    net = Network(env, topo)
    nodes = [Node(env, net, i) for i in range(n)]
    tree = build_spanning_tree(topo)
    dirs = [ArrowDirectory(node, tree) for node in nodes]
    rng = rngs.stream("churn")
    latencies: List[float] = []

    def churn(env, oid, sequence):
        holder = sequence[0]
        dirs[holder].create(oid, dirs)
        for target in sequence[1:]:
            if target == holder:
                continue
            started = env.now
            proc = env.process(dirs[target].find(oid), name="find")
            yield env.timeout(2e-3)
            dirs[holder].release(oid)
            yield proc
            latencies.append(env.now - started)
            holder = target

    for i in range(num_objects):
        seq = [int(x) for x in rng.integers(0, n, size=migrations_per_object + 1)]
        env.process(churn(env, f"ablate{i}", seq))
    env.run()
    rows.append({
        "locator": "arrow",
        "mean_latency_ms": round(1e3 * sum(latencies) / max(len(latencies), 1), 2),
        "messages": net.messages_sent.value,
        "migrations": len(latencies),
    })

    # --- home directory (measured through the production D-STM stack) ---
    from repro.core.cluster import Cluster
    from repro.core.config import ClusterConfig, SchedulerKind
    from repro.dstm.objects import ObjectMode

    cluster = Cluster(ClusterConfig(num_nodes=n, seed=seed,
                                    scheduler=SchedulerKind.TFA))
    rng = cluster.rngs.stream("churn")
    latencies2: List[float] = []

    def churn2(env, oid, sequence):
        cluster.alloc(oid, 0, node=sequence[0])
        for target in sequence[1:]:
            engine = cluster.engines[target]
            root = engine.begin()
            started = env.now
            yield from cluster.proxies[target].open_object(
                root, oid, ObjectMode.ACQUIRE
            )
            latencies2.append(env.now - started)
            cluster.proxies[target].release_object(oid, committed=False)

    for i in range(num_objects):
        seq = [int(x) for x in rng.integers(0, n, size=migrations_per_object + 1)]
        cluster.env.process(churn2(cluster.env, f"ablate{i}", seq))
    cluster.env.run()
    rows.append({
        "locator": "home-directory",
        "mean_latency_ms": round(1e3 * sum(latencies2) / max(len(latencies2), 1), 2),
        "messages": cluster.network.messages_sent.value,
        "migrations": len(latencies2),
    })
    return rows


ALL_ABLATIONS = {
    "threshold": (run_threshold_sweep, "A1 — CL threshold sweep (bank, high contention)"),
    "backoff": (run_backoff_ablation, "A2 — scheduling policy head-to-head (bank)"),
    "network": (run_network_ablation, "A3 — link-delay band sensitivity (linked list)"),
    "nesting": (run_nesting_ablation, "A4 — closed vs flat vs open nesting (bank)"),
    "conflict-scope": (run_conflict_scope_ablation, "A5 — conflict victim scope (bank)"),
    "contention-manager": (run_contention_manager_ablation, "A6 — contention manager (bank)"),
    "abort-cost": (run_abort_cost_ablation, "A7 — framework abort-overhead sensitivity (bank, high contention)"),
    "admission": (run_admission_ablation, "A8 — RTS admission rule: paper-literal vs economic (bank)"),
    "locator": (run_locator_ablation, "A9 — CC locator: Arrow vs home directory (synthetic churn)"),
}


def format_ablation(name: str, rows: List[Dict[str, Any]]) -> str:
    _fn, title = ALL_ABLATIONS[name]
    return render_table(rows, title=title)
