"""The experiment harness: one call = one cell of a paper table/figure.

:func:`run_experiment` builds a cluster from a :class:`ClusterConfig`,
instantiates a workload by name, executes it, and returns an
:class:`ExperimentResult` with everything the analysis layer needs —
throughput, abort accounting, and the Table-I nested-abort rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.executor import WorkloadExecutor

__all__ = ["ExperimentResult", "run_experiment"]

#: table-rendering float precision, shared by the named metrics and
#: everything inside ``extra`` (one normalisation point — see row())
_ROW_NDIGITS = 4


def _round_value(value: Any, ndigits: int = _ROW_NDIGITS) -> Any:
    """Round floats (recursing into dicts/lists/tuples) for table rows.

    ``extra`` carries whatever the enabled subsystems measured; without
    this, raw floats (mean batch sizes, hit rates, ...) print at full
    precision and make otherwise-identical tables diff noisily.
    """
    if isinstance(value, float):
        return round(value, ndigits)
    if isinstance(value, dict):
        return {k: _round_value(v, ndigits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_value(v, ndigits) for v in value]
    return value


@dataclass
class ExperimentResult:
    """Measured outcome of one experiment cell."""

    workload: str
    scheduler: str
    num_nodes: int
    read_fraction: float
    seed: int
    horizon: Optional[float]
    commits: int
    root_aborts: int
    throughput: float
    abort_ratio: float
    nested_abort_rate: float
    nested_aborts_own: int
    nested_aborts_parent: int
    mean_commit_latency: float
    messages_sent: int
    sim_events: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def row(self) -> Dict[str, Any]:
        """Flat dict for table rendering."""
        out = {
            "workload": self.workload,
            "scheduler": self.scheduler,
            "nodes": self.num_nodes,
            "read%": int(round(self.read_fraction * 100)),
            "commits": self.commits,
            "aborts": self.root_aborts,
            "throughput": round(self.throughput, 2),
            "abort_ratio": round(self.abort_ratio, _ROW_NDIGITS),
            "nested_abort_rate": round(self.nested_abort_rate, _ROW_NDIGITS),
        }
        out.update({k: _round_value(v) for k, v in self.extra.items()})
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what ``repro.par`` caches and ships between
        processes); exact — no rounding."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


def run_experiment(
    workload_name: str,
    config: ClusterConfig,
    read_fraction: float = 0.9,
    workers_per_node: int = 2,
    horizon: Optional[float] = 20.0,
    stop_after_commits: Optional[int] = None,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    executor_kwargs: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Run one (workload, config) cell and collect the metrics."""
    from repro.workloads.registry import make_workload

    workload = make_workload(
        workload_name, read_fraction=read_fraction, **(workload_kwargs or {})
    )
    cluster = Cluster(config)
    if cluster.payload_plane is not None and workload.payload_size is not None:
        # The workload's declared size spec becomes the plane-wide
        # default before any alloc() runs in executor.setup().
        cluster.payload_plane.default_size = int(workload.payload_size)
    if config.arrival.enabled:
        # Lazy import: repro.traffic imports repro.core right back.
        from repro.traffic.engine import OpenLoopExecutor

        if stop_after_commits is not None:
            raise ValueError(
                "stop_after_commits is a closed-loop stop condition; "
                "open-loop runs stop at the horizon"
            )
        executor = OpenLoopExecutor(
            cluster,
            workload,
            config.arrival,
            service_workers=workers_per_node,
            horizon=horizon,
            **(executor_kwargs or {}),
        )
    else:
        executor = WorkloadExecutor(
            cluster,
            workload,
            workers_per_node=workers_per_node,
            horizon=horizon,
            stop_after_commits=stop_after_commits,
            **(executor_kwargs or {}),
        )
    executor.setup()
    executor.run()
    obs_summary = cluster.finish_obs()

    m = cluster.metrics
    return ExperimentResult(
        workload=workload.name,
        scheduler=config.scheduler.value,
        num_nodes=config.num_nodes,
        read_fraction=read_fraction,
        seed=config.seed,
        horizon=horizon,
        commits=m.commits.value,
        root_aborts=m.root_aborts.value,
        throughput=executor.throughput(),
        abort_ratio=m.abort_ratio(),
        nested_abort_rate=m.nested_abort_rate(),
        nested_aborts_own=m.nested_aborts_own.value,
        nested_aborts_parent=m.nested_aborts_parent.value,
        mean_commit_latency=m.commit_latency.mean,
        messages_sent=cluster.network.messages_sent.value,
        sim_events=cluster.env.events_processed,
        extra=_extra(cluster, executor, obs_summary),
    )


def _extra(
    cluster: Cluster,
    executor: Any,
    obs_summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    extra: Dict[str, Any] = {"abandoned": executor.abandoned}
    if cluster.config.arrival.enabled:
        extra.update(executor.traffic_summary())
    if obs_summary is not None:
        extra["obs"] = obs_summary
    if cluster.config.faults.enabled:
        m = cluster.metrics
        extra.update(
            fault_drops=m.fault_drops.value,
            fault_duplicates=m.fault_duplicates.value,
            rpc_timeouts=m.rpc_timeouts.value,
            rpc_retries=m.rpc_retries.value,
            lease_reclaims=m.lease_reclaims.value,
            crash_aborts=m.crash_aborts.value,
        )
    rc = cluster.config.rpc
    if rc.cache:
        cs = cluster.rpc_cache_stats()
        extra.update(
            rpc_cache_hits=int(cs["cache_hits"]),
            rpc_cache_misses=int(cs["cache_misses"]),
            rpc_cache_hit_rate=round(cs["cache_hit_rate"], 4),
            rpc_cache_fences=int(cs["cache_fences"]),
        )
    if rc.batch_window > 0.0:
        bs = cluster.rpc_batch_stats()
        extra.update(
            rpc_batches=int(bs["batches"]),
            rpc_batched_messages=int(bs["batched_messages"]),
            rpc_mean_batch=round(bs["mean_batch"], 3),
            rpc_max_batch=int(bs["max_batch"]),
        )
    if cluster.payload_plane is not None:
        ps = cluster.payload_stats()
        extra.update(
            payload_bytes_on_wire=int(ps["payload_bytes_on_wire"]),
            control_bytes_on_wire=int(ps["control_bytes_on_wire"]),
            grant_bytes_on_wire=int(ps["grant_bytes_on_wire"]),
            payload_fetch_bytes=int(ps["payload_fetch_bytes"]),
            payload_fetches=int(ps["payload_fetches"]),
            payload_cache_hits=int(ps["payload_cache_hits"]),
            payload_cache_hit_rate=round(ps["payload_cache_hit_rate"], 4),
        )
    if cluster.profiler is not None:
        pc = cluster.config.prof
        extra["prof"] = cluster.profiler.snapshot()
        if pc.folded_path:
            cluster.profiler.write_folded(pc.folded_path)
    return extra
