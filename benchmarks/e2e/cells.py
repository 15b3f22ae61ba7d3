"""The ledger cells: how each is built, run once, digested and checked.

A *cell* is one ``Cluster`` + executor built directly from a
``ClusterConfig`` — never through ``benchmarks/conftest.run_cell`` or
``repro.par``, whose on-disk cell cache would time a disk read.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import calib
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.executor import WorkloadExecutor
from repro.dstm.errors import AbortReason
from repro.sim import Environment, Event
from repro.traffic.engine import OpenLoopExecutor
from repro.workloads.registry import make_workload

__all__ = ["CELLS", "Cell", "build", "inspect_run", "rep_seed", "run_once", "time_run"]

#: two workers (closed loop) / dispatchers (open loop) per node
WORKERS_PER_NODE = 2

#: The executors abandon a root after 64 attempts (a safety valve).  On
#: the high-contention cells that turns about one root in 4,000 into a
#: failed operation; the ledger wants workloads on which no operation
#: fails, so the valve is widened — not removed, a livelock must still
#: end — and anything it still catches is reported as failed.
MAX_ATTEMPTS = 256

#: repetitions of one run use seeds ``seed * REP_STRIDE + i``: distinct
#: ``--seed`` values can never share a cell
REP_STRIDE = 64


@dataclass(frozen=True)
class Cell:
    """One workload of the ledger."""

    name: str
    workload: str
    read_fraction: float
    nodes: int
    #: simulated seconds; sized so one repetition takes 2-3 host seconds
    horizon: float
    #: ClusterConfig fields beyond nodes/seed/scheduler/cl_threshold
    config: Dict[str, Any] = field(default_factory=dict)


CELLS: Dict[str, Cell] = {
    cell.name: cell
    for cell in (
        # Fig. 4's headline cell: ~320 events and ~63 messages per commit,
        # so sim + net + the rpc default path do most of the work.
        Cell(
            "lowcont_bank_80",
            workload="bank", read_fraction=0.9, nodes=80, horizon=6.0,
        ),
        # Fig. 5 / Table I regime: four closed-nested children per
        # reservation, ~3 aborts per commit, so dstm and scheduler dominate.
        # Horizon pinned at 20: this cell's simulated throughput decays
        # with the horizon (README, findings).
        Cell(
            "hicont_vacation_20",
            workload="vacation", read_fraction=0.1, nodes=20, horizon=20.0,
        ),
        # The only cell through traffic (arrivals, admission) and the
        # opt-in rpc plane (batcher, fenced lookup cache, proxy payloads).
        # 1 tx/s: well under this cell's long-horizon knee (README, findings).
        Cell(
            "serve_proxy_bank_8",
            workload="bank", read_fraction=0.2, nodes=8, horizon=900.0,
            config=dict(
                arrival=dict(enabled=True, process="poisson", rate=1.0, zipf_s=1.2),
                payload=dict(enabled=True, proxy=True, size=1 << 20),
                rpc=dict(cache=True, batch_window=0.002),
            ),
        ),
        # No cell runs through ``faults`` yet: the one ISSUE 13 specified
        # fails its oracles on about one seed in 50 (README, finding 3).
    )
}


def rep_seed(seed: int, rep: int) -> int:
    """The cluster seed of repetition ``rep`` of a ``--seed seed`` run."""
    if not 0 <= rep < REP_STRIDE:
        raise ValueError(f"at most {REP_STRIDE} repetitions per run, got rep {rep}")
    return seed * REP_STRIDE + rep


def build(
    cell: Cell, seed: int, horizon: Optional[float] = None, **overrides: Any
) -> Tuple[Cluster, Any]:
    """``Cluster(config)`` + executor with ``setup()`` done (what
    ``setup_s`` times).  ``overrides`` are extra ClusterConfig fields
    (``obs=``, ``check=``, ``prof=``)."""
    config = ClusterConfig(
        num_nodes=cell.nodes, seed=seed, scheduler="rts", cl_threshold=4,
        **{**cell.config, **overrides},
    )
    workload = make_workload(cell.workload, read_fraction=cell.read_fraction)
    cluster = Cluster(config)
    horizon = cell.horizon if horizon is None else horizon
    if config.arrival.enabled:
        executor: Any = OpenLoopExecutor(
            cluster, workload, config.arrival,
            service_workers=WORKERS_PER_NODE, horizon=horizon,
            max_attempts_per_tx=MAX_ATTEMPTS,
        )
    else:
        executor = WorkloadExecutor(
            cluster, workload, workers_per_node=WORKERS_PER_NODE,
            horizon=horizon, max_attempts_per_tx=MAX_ATTEMPTS,
        )
    executor.setup()
    return cluster, executor


#: A cell's full horizon is driven in this many slices (fewer, in
#: proportion, for a shortened horizon), with one sample of the reference
#: kernel between slices — about 40 ms of simulation per 3 ms of kernel.
#: The host changes speed on a scale of 100 ms and up, so each slice is
#: rescaled by the speed the host had while it ran.
SLICES = 60


@contextlib.contextmanager
def _sliced(slices: int, log: List[Tuple[float, float]]) -> Iterator[None]:
    """While active, ``Environment.run(until=<time>)`` advances in
    ``slices`` equal steps of simulated time and appends ``(host seconds,
    reference-kernel seconds)`` per step to ``log``; ``run(until=<event>)``
    (the drain) is one step.  Stepping does not change what is simulated:
    the kernel's clock just stops at each boundary and goes on — the
    unsliced sanitized repetition must land on the same digest."""
    plain_run = Environment.run

    def run(env: Environment, until: Any = None, max_events: Any = None) -> Any:
        if isinstance(until, Event) or until is None:
            targets = [until]
        else:
            start, span = env.now, float(until) - env.now
            targets = [start + span * k / slices for k in range(1, slices)] + [until]
        before = calib.sample()
        for target in targets:
            t0 = time.perf_counter()
            result = plain_run(env, target, max_events)
            wall = time.perf_counter() - t0
            after = calib.sample()
            log.append((wall, (before + after) / 2))
            before = after
        return result

    Environment.run = run  # type: ignore[method-assign]
    try:
        yield
    finally:
        Environment.run = plain_run  # type: ignore[method-assign]


def time_run(cell: Cell, executor: Any) -> Dict[str, float]:
    """Time ``executor.run()`` against the reference kernel.

    ``wall_s`` is the host time spent inside ``Environment.run`` (the
    kernel samples between slices are not in it); ``ref_s`` is the same
    time with every slice rescaled to reference speed (``calib``);
    ``cpu_wall`` is process CPU ÷ wall over the whole call.
    """
    log: List[Tuple[float, float]] = []
    slices = max(1, round(SLICES * executor.horizon / cell.horizon))
    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with _sliced(slices, log):
        executor.run()
    elapsed = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return {
        "wall_s": sum(wall for wall, _kernel in log),
        "ref_s": sum(wall * calib.REFERENCE_S / kernel for wall, kernel in log),
        "cpu_wall": cpu / elapsed,
    }


def inspect_run(cell: Cell, cluster: Cluster, executor: Any) -> Dict[str, Any]:
    """What a finished repetition leaves behind: ``counts`` (exact public
    counters, summable across repetitions), ``sim_digest`` and
    ``failures`` (violated correctness checks, empty when all hold)."""
    cluster.finish_obs()
    return {
        "counts": _counts(cluster, executor),
        "sim_digest": _digest(cluster),
        "failures": _check(cell, cluster, executor),
    }


def run_once(
    cell: Cell, seed: int, horizon: Optional[float] = None, **overrides: Any
) -> Dict[str, Any]:
    """Build, time and inspect one repetition; the result also carries
    :func:`time_run`'s fields and the live ``cluster`` (for a tool's own
    output)."""
    cluster, executor = build(cell, seed, horizon, **overrides)
    timing = time_run(cell, executor)
    return {**timing, "cluster": cluster, **inspect_run(cell, cluster, executor)}


# ----------------------------------------------------------------------
# what a repetition leaves behind
# ----------------------------------------------------------------------


def _digest(cluster: Cluster) -> str:
    """sha256 over what the modelled system did — not over how many
    kernel events it took (``env.events_processed`` is left out: the
    ROADMAP's message-path item changes it by design)."""
    m = cluster.metrics
    state = {
        "commits": m.commits.value,
        "aborts_by_reason": {reason.value: n for reason, n in m.aborts_by_reason.items()},
        "nested_aborts_own": m.nested_aborts_own.value,
        "nested_aborts_parent": m.nested_aborts_parent.value,
        "messages_sent": cluster.network.messages_sent.value,
        "per_type": {mtype.value: n for mtype, n in cluster.network.per_type.items()},
        "now": repr(cluster.env.now),
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _counts(cluster: Cluster, executor: Any) -> Dict[str, float]:
    """Every public counter the ledger reads, as plain numbers."""
    m = cluster.metrics
    commits = m.commits.value
    user_aborts = m.aborts_by_reason.get(AbortReason.USER_ABORT, 0)
    open_loop = cluster.config.arrival.enabled
    cache = cluster.rpc_cache_stats()
    batch = cluster.rpc_batch_stats()
    payload = cluster.payload_stats()
    schedulers = [cluster.scheduler_of(n) for n in range(cluster.num_nodes)]
    enqueued = sum(s.enqueued for s in schedulers)
    rejected = sum(s.rejected_short_exec + s.rejected_high_cl for s in schedulers)
    counts: Dict[str, float] = {
        "horizon": executor.horizon,
        "commits": commits,
        "root_aborts": m.root_aborts.value,
        "commit_latency_sum": m.commit_latency.mean * m.commit_latency.count,
        "nested_aborts_own": m.nested_aborts_own.value,
        "nested_aborts_parent": m.nested_aborts_parent.value,
        "abandoned": executor.abandoned,
        "events": cluster.env.events_processed,
        "messages": cluster.network.messages_sent.value,
        "inbox_wait_sum": sum(n.total_queueing_delay for n in cluster.nodes),
        "inbox_messages": sum(n.messages_processed for n in cluster.nodes),
        "rpc_calls": sum(c.calls for c in cluster.rpc_clients),
        "cache_hits": cache["cache_hits"],
        "cache_misses": cache["cache_misses"],
        "batches": batch["batches"],
        "batched_messages": batch["batched_messages"],
        "payload_fetches": payload["payload_fetches"],
        "payload_cache_hits": payload["payload_cache_hits"],
        "payload_cache_misses": payload["payload_cache_misses"],
        "grant_bytes": payload["grant_bytes_on_wire"],
        "sched_enqueued": enqueued,
        "sched_decisions": enqueued + rejected,
    }
    if open_loop:
        traffic = executor.traffic_summary()
        counts.update(
            # offered arrivals are the operations; shed ones failed
            attempted=traffic["offered"],
            failed=executor.abandoned + traffic["shed"],
            offered=traffic["offered"],
            shed=traffic["shed"],
            queue_depth_mean=traffic["queue_depth_mean"],
            sojourn_p50=traffic.get("latency_p50", 0.0),
            sojourn_p95=traffic.get("latency_p95", 0.0),
            sojourn_p99=traffic.get("latency_p99", 0.0),
        )
    else:
        # a closed-loop root ends in a commit, a programmatic abort
        # (vacation's "sold out": an outcome, not a failure) or abandonment
        counts.update(
            attempted=commits + user_aborts + executor.abandoned,
            failed=executor.abandoned,
            offered=0, shed=0, queue_depth_mean=0.0,
            sojourn_p50=0.0, sojourn_p95=0.0, sojourn_p99=0.0,
        )
    return counts


def _check(cell: Cell, cluster: Cluster, executor: Any) -> List[str]:
    """The oracles of one repetition; returns what failed."""
    failures: List[str] = []
    workload = executor.workload
    if cluster.metrics.commits.value == 0:
        failures.append("no transaction committed")
    if cell.workload == "bank":
        total = sum(cluster.authoritative_value(a) for a in workload.accounts)
        if total != workload.expected_total():
            failures.append(
                f"bank money not conserved: {total} != {workload.expected_total()}"
            )
    if cell.workload == "vacation":
        # booking-count equality does not hold by workload semantics
        # (cancel releases with min(total, available + 1)); the row
        # bounds do
        for rows in workload.resources.values():
            for oid in rows:
                total, available, _price = cluster.authoritative_value(oid)
                if not 0 <= available <= total:
                    failures.append(f"{oid}: available {available} outside [0, {total}]")
    if cluster.config.arrival.enabled:
        traffic = executor.traffic_summary()
        if not traffic["stable"]:
            failures.append("open-loop verdict is unstable")
        if traffic["shed"]:
            failures.append(f"{traffic['shed']} arrivals shed")
    return failures
