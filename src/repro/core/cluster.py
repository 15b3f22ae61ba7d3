"""The cluster facade: builds and wires the whole simulated deployment.

``Cluster(config)`` (or the keyword shortcuts) constructs the environment,
topology, network, per-node clocks, directory shards, schedulers, TM
proxies and TFA engines, and exposes the user-facing API:

* :meth:`Cluster.alloc` — create a shared object (bootstrap);
* :meth:`Cluster.atomic` — run a transaction body as a simulation process
  from workload code;
* :meth:`Cluster.run_transaction` — convenience: run one transaction to
  completion and return its result (drives the event loop);
* :meth:`Cluster.run` — advance the simulation.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from repro.core.config import ClusterConfig, SchedulerKind
from repro.core.metrics import MetricsCollector
from repro.dstm.directory import DirectoryShard
from repro.dstm.objects import home_node
from repro.dstm.proxy import TMProxy
from repro.dstm.tfa import TFAEngine
from repro.faults import FaultInjector, FaultPlan, NodeRecovery, RpcPolicy
from repro.net.clocks import NodeClock
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import Topology
from repro.rpc import LookupCache, PiggybackBatcher, RpcClient
from repro.scheduler.adaptive import AdaptiveThreshold
from repro.scheduler.backoff import BackoffScheduler
from repro.scheduler.base import SchedulerPolicy
from repro.scheduler.rts import RtsScheduler
from repro.scheduler.tfa_baseline import TfaScheduler
from repro.sim import Environment, RngRegistry, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check import Sanitizer
    from repro.obs import ObsRecorder
    from repro.rpc.payload import PayloadPlane

__all__ = ["Cluster"]


class Cluster:
    """A fully wired simulated D-STM deployment."""

    def __init__(self, config: Optional[ClusterConfig] = None, **kwargs: Any) -> None:
        if config is None:
            config = ClusterConfig(**kwargs)
        elif kwargs:
            config = config.replace(**kwargs)
        self.config = config
        self.env = Environment()
        self.rngs = RngRegistry(seed=config.seed)

        # Kernel profiler (repro.prof).  Strictly additive: with the
        # default ProfConfig(enabled=False) no profiler exists and the
        # run loop pays one is-not-None guard; enabled, it only counts
        # (timeline unchanged — tests/rpc/test_equivalence.py pins it).
        pc = config.prof
        self.profiler: Optional[Any] = None
        if pc.enabled:
            from repro.prof import KernelProfiler

            self.profiler = KernelProfiler(wall=pc.wall).install(self.env)

        # Observability (repro.obs).  Strictly additive like faults: the
        # default ObsConfig(enabled=False) builds no recorder and leaves
        # the tracer exactly as trace/trace_categories configure it.
        oc = config.obs
        trace_cats = set(config.trace_categories) if config.trace_categories else None
        self.obs: Optional["ObsRecorder"] = None
        if oc.enabled:
            from repro.obs import OBS_CATEGORIES, ObsRecorder

            if config.trace and trace_cats is None:
                cats = None  # the user asked for everything
            else:
                cats = set(OBS_CATEGORIES) | (trace_cats or set())
            self.tracer = Tracer(
                enabled=True, categories=cats, keep_records=config.trace
            )
            self.obs = ObsRecorder(
                window=oc.window,
                jsonl_path=oc.jsonl_path,
                chrome_path=oc.chrome_path,
            )
            self.tracer.attach_sink(self.obs)
        else:
            self.tracer = Tracer(enabled=config.trace, categories=trace_cats)
        self.topology = Topology(
            config.num_nodes,
            self.rngs.stream("topology"),
            kind=config.topology,
            min_delay=config.min_link_delay,
            max_delay=config.max_link_delay,
            bandwidth=config.payload.bandwidth if config.payload.enabled else None,
        )
        self.network = Network(
            self.env, self.topology, tracer=self.tracer,
            local_delay=config.local_loopback_delay,
        )

        # Payload plane (repro.rpc.payload).  Strictly additive: the
        # default PayloadConfig(enabled=False) builds no plane and no
        # wire-cost model, so the timeline is byte-identical (pinned by
        # tests/rpc/test_equivalence.py).  Enabled, the control plane
        # still carries semantic values unchanged; the plane only models
        # bulk bytes (declared sizes, transfer + serialization delay,
        # lazy proxy-mode resolution).
        plc = config.payload
        self.payload_plane: Optional["PayloadPlane"] = None
        if plc.enabled:
            from repro.net.network import WireCostModel
            from repro.rpc.payload import PayloadPlane

            self.payload_plane = PayloadPlane(plc, config.num_nodes)
            self.network.cost = WireCostModel(
                self.topology.bandwidth_of, plc.ser_per_byte, plc.control_size
            )
        self.metrics = MetricsCollector(keep_latency_samples=oc.enabled)

        # RPC substrate (repro.rpc).  Strictly additive: the default
        # RpcConfig (window 0, hint-mode cache) builds no batcher and
        # keeps the lookup caches behaving exactly like the plain dicts
        # they replaced, so same-seed runs are byte-identical.
        rc = config.rpc
        self.batcher: Optional[PiggybackBatcher] = None
        if rc.batch_window > 0.0:
            self.batcher = PiggybackBatcher(
                self.env, rc.batch_window, tracer=self.tracer
            ).install(self.network)
        self.rpc_clients: List[RpcClient] = []

        # Fault injection (repro.faults).  Strictly additive: with the
        # default FaultConfig(enabled=False) no injector, heartbeats,
        # leases or RPC timeouts exist and runs are identical to a build
        # without the subsystem.
        fc = config.faults
        self.fault_plan: Optional[FaultPlan] = None
        self.fault_injector: Optional[FaultInjector] = None
        rpc_policy: Optional[RpcPolicy] = None
        lease_duration: Optional[float] = None
        if fc.enabled:
            self.fault_plan = FaultPlan(fc, self.rngs.stream("faults"), config.num_nodes)
            self.fault_injector = FaultInjector(
                self.fault_plan, metrics=self.metrics, tracer=self.tracer
            ).install(self.network)
            rpc_policy = RpcPolicy.from_config(fc)
            lease_duration = fc.lease_duration

        # Invariant sanitizer (repro.check).  Strictly additive: with the
        # default CheckConfig(sanitize=False) — and REPRO_SANITIZE unset —
        # no sanitizer exists and every hook site pays one `is not None`
        # guard.  The sanitizer itself is read-only, so even sanitized
        # runs keep the unsanitized committed timeline.
        self.sanitizer: Optional["Sanitizer"] = None
        if config.check.sanitize or os.environ.get(
            "REPRO_SANITIZE", ""
        ) not in ("", "0"):
            from repro.check import Sanitizer

            self.sanitizer = Sanitizer()
            if rpc_policy is not None:
                # inv-retry-policy: the recovery deadlines derived from
                # this policy must be self-consistent before any RPC
                # runs under it.
                self.sanitizer.check_policy(rpc_policy)

        clock_rng = self.rngs.stream("clocks")
        self.nodes: List[Node] = []
        self.directories: List[DirectoryShard] = []
        self.proxies: List[TMProxy] = []
        self.engines: List[TFAEngine] = []
        for node_id in range(config.num_nodes):
            clock = NodeClock(
                node_id,
                rng=clock_rng,
                max_skew=config.max_clock_skew,
                max_drift=config.max_clock_drift,
            )
            node = Node(self.env, self.network, node_id, clock=clock,
                        msg_process_time=config.msg_process_time)
            directory = DirectoryShard(
                node,
                lease_duration=lease_duration,
                reclaim_grace=fc.reclaim_grace,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            scheduler = self._make_scheduler(node_id)
            rpc_client = RpcClient(
                node,
                policy=rpc_policy,
                tracer=self.tracer,
                metrics=self.metrics,
                cache=LookupCache(
                    fencing=rc.cache, capacity=rc.cache_capacity
                ),
            )
            self.rpc_clients.append(rpc_client)
            proxy = TMProxy(
                node,
                directory,
                scheduler,
                tracer=self.tracer,
                fallback_exec_estimate=config.fallback_exec_estimate,
                winner_policy=config.winner_policy,
                conflict_scope=config.conflict_scope,
                rpc_client=rpc_client,
            )
            directory.proxy = proxy
            if self.sanitizer is not None:
                self.sanitizer.attach_proxy(node_id, proxy)
                directory.sanitizer = self.sanitizer
                proxy.sanitizer = self.sanitizer
                rpc_client.cache.sanitizer = self.sanitizer
            if self.payload_plane is not None:
                proxy.payload = self.payload_plane.nodes[node_id].attach(
                    rpc_client, self.sanitizer
                )
            if fc.enabled:
                proxy.recovery = NodeRecovery(proxy)
            engine = TFAEngine(
                proxy,
                op_local_time=config.op_local_time,
                nesting=config.nesting,
                nested_commit_validation=config.nested_commit_validation,
                abort_overhead=config.abort_overhead,
                nested_retry_cap=fc.nested_retry_cap if fc.enabled else None,
            )
            engine.on_commit_hook = self.metrics.on_commit
            engine.on_abort_hook = self.metrics.on_abort
            if self.sanitizer is not None:
                engine.sanitizer = self.sanitizer
            self.nodes.append(node)
            self.directories.append(directory)
            self.proxies.append(proxy)
            self.engines.append(engine)

        if fc.enabled:
            # Staggered lease heartbeats (phases spread over one interval
            # so renewals never burst onto the network simultaneously).
            interval = fc.lease_renew_interval
            for node_id, proxy in enumerate(self.proxies):
                offset = interval * (node_id + 1) / (config.num_nodes + 1)
                self.env.process(
                    proxy.recovery.lease_heartbeat(interval, offset=offset),
                    name=f"n{node_id}.heartbeat",
                )
            if fc.orphan_sweep_interval is not None:
                # Orphan repatriation sweeps, staggered like heartbeats.
                sweep = fc.orphan_sweep_interval
                for node_id, proxy in enumerate(self.proxies):
                    offset = sweep * (node_id + 1) / (config.num_nodes + 1)
                    self.env.process(
                        proxy.recovery.orphan_sweep(
                            sweep, min_age=fc.orphan_min_age, offset=offset
                        ),
                        name=f"n{node_id}.orphan_sweep",
                    )

        self._task_ids = itertools.count(1)
        self._alloc_count = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _make_scheduler(self, node_id: int) -> SchedulerPolicy:
        cfg = self.config
        kind = cfg.scheduler
        if kind is SchedulerKind.RTS:
            threshold: Any
            if cfg.cl_threshold is None:
                threshold = AdaptiveThreshold()
            else:
                threshold = int(cfg.cl_threshold)
            return RtsScheduler(
                cl_threshold=threshold,
                contention_window=cfg.contention_window,
                max_backoff=cfg.max_enqueue_backoff,
                admission=cfg.rts_admission,
            )
        if kind is SchedulerKind.TFA:
            return TfaScheduler()
        if kind is SchedulerKind.TFA_BACKOFF:
            return BackoffScheduler(
                base=cfg.backoff_base,
                cap=cfg.backoff_cap,
                rng=self.rngs.stream(f"backoff[{node_id}]"),
            )
        raise AssertionError(f"unhandled scheduler kind {kind}")

    # ------------------------------------------------------------------
    # Object allocation (bootstrap)
    # ------------------------------------------------------------------

    def alloc(
        self,
        oid: str,
        value: Any,
        node: Optional[int] = None,
        payload_size: Optional[int] = None,
    ) -> str:
        """Create shared object ``oid`` with ``value`` at ``node``.

        When ``node`` is omitted, objects are spread round-robin.  The
        home directory entry is installed directly (bootstrap happens
        before the simulation starts, so no messages are exchanged).
        ``payload_size`` declares the object's bulk-byte footprint on the
        payload plane (defaults to the plane-wide size; ignored when the
        plane is off).
        """
        if node is None:
            node = self._alloc_count % self.config.num_nodes
        self._alloc_count += 1
        self.proxies[node].install_object(oid, value)
        home = home_node(oid, self.config.num_nodes)
        # The initial value doubles as the home's first recovery snapshot
        # (ignored when leases are off).
        self.directories[home].register(
            oid, owner=node, version=0, value=value, value_version=0
        )
        if self.payload_plane is not None:
            self.payload_plane.register(oid, node, size=payload_size)
            self.proxies[node].store[oid].payload_src = node
        return oid

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------

    def new_task_id(self, node: int) -> str:
        return f"task-n{node}-{next(self._task_ids)}"

    def atomic(
        self,
        body: Callable[..., Generator],
        *args: Any,
        node: int,
        profile: str = "default",
        max_attempts: Optional[int] = None,
    ) -> Generator[Any, Any, Any]:
        """The atomic-block runner (generator; compose with ``yield from``
        inside simulation processes).  Retries the body per the node's
        scheduler policy until it commits."""
        from repro.core.api import run_root  # local import: avoids cycle

        return run_root(
            self, self.engines[node], body, args,
            profile=profile, max_attempts=max_attempts,
        )

    def spawn(self, generator: Generator, name: Optional[str] = None):
        """Run a generator as a simulation process."""
        return self.env.process(generator, name=name)

    def run_transaction(
        self,
        body: Callable[..., Generator],
        *args: Any,
        node: int,
        profile: str = "default",
        max_attempts: Optional[int] = None,
    ) -> Any:
        """Convenience: run a single transaction to completion."""
        proc = self.spawn(
            self.atomic(body, *args, node=node, profile=profile,
                        max_attempts=max_attempts),
            name=f"tx@{node}",
        )
        return self.env.run(until=proc)

    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (to ``until`` or exhaustion)."""
        self.env.run(until=until)

    def finish_obs(self) -> Optional[Dict[str, Any]]:
        """Flush/close observability exports and return the obs summary.

        No-op (returns None) when the obs layer is disabled.  Idempotent
        for the summary; the file sinks are closed on the first call.
        """
        if self.obs is None:
            return None
        self.tracer.close_sinks()
        return self.obs.summary(now=self.env.now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def rpc_cache_stats(self) -> Dict[str, float]:
        """Cluster-wide lookup-cache counters (zeros when never probed)."""
        hits = sum(c.cache.hits for c in self.rpc_clients)
        misses = sum(c.cache.misses for c in self.rpc_clients)
        probes = hits + misses
        return {
            "cache_hits": float(hits),
            "cache_misses": float(misses),
            "cache_hit_rate": hits / probes if probes else 0.0,
            "cache_fences": float(
                sum(c.cache.fences for c in self.rpc_clients)
            ),
            "cache_evictions": float(
                sum(c.cache.evictions for c in self.rpc_clients)
            ),
        }

    def rpc_batch_stats(self) -> Dict[str, float]:
        """Piggyback-batching counters (zeros when batching is off)."""
        if self.batcher is None:
            return {"batches": 0.0, "batched_messages": 0.0,
                    "mean_batch": 0.0, "max_batch": 0.0}
        return {k: float(v) for k, v in self.batcher.stats().items()}

    def payload_stats(self) -> Dict[str, float]:
        """Payload-plane counters (zeros when the plane is off)."""
        if self.payload_plane is None:
            return {
                "payload_bytes_on_wire": 0.0,
                "control_bytes_on_wire": 0.0,
                "grant_bytes_on_wire": 0.0,
                "payload_fetch_bytes": 0.0,
                "payload_fetches": 0.0,
                "payload_cache_hits": 0.0,
                "payload_cache_misses": 0.0,
                "payload_cache_hit_rate": 0.0,
            }
        totals = self.payload_plane.totals()
        fetch_bytes = self.payload_plane.fetch_bytes
        return {
            "payload_bytes_on_wire": float(self.network.payload_bytes),
            "control_bytes_on_wire": float(self.network.control_bytes),
            # bytes riding control-plane grants/hand-offs: full payloads
            # in eager mode, constant ObjectProxy descriptors in proxy
            # mode — the flat-vs-linear axis bench_payload plots
            "grant_bytes_on_wire": float(
                self.network.payload_bytes - fetch_bytes
            ),
            "payload_fetch_bytes": float(fetch_bytes),
            "payload_fetches": float(totals["fetches"]),
            "payload_cache_hits": float(totals["hits"]),
            "payload_cache_misses": float(totals["misses"]),
            "payload_cache_hit_rate": self.payload_plane.hit_rate(),
        }

    def owner_of(self, oid: str) -> Optional[int]:
        """Current registered owner (directory view)."""
        home = home_node(oid, self.config.num_nodes)
        return self.directories[home].owner_of(oid)

    def committed_value(self, oid: str) -> Any:
        """The committed value of ``oid`` wherever it currently lives."""
        for proxy in self.proxies:
            obj = proxy.store.get(oid)
            if obj is not None:
                return obj.value
        raise KeyError(f"object {oid} not found on any node")

    def authoritative_value(self, oid: str) -> Any:
        """The committed value by the *directory's* authority (fault runs).

        Under fault injection a stale copy can transiently coexist with
        the real one (it is fenced, not yet garbage-collected), so a
        store scan is ambiguous.  The registered owner's copy is the
        authority; if that copy is gone (owner crashed mid-transfer) the
        home's recovery snapshot is — that is exactly what a reclaim
        would re-host.
        """
        home = home_node(oid, self.config.num_nodes)
        directory = self.directories[home]
        owner = directory.owner_of(oid)
        if owner is not None:
            obj = self.proxies[owner].store.get(oid)
            if obj is not None:
                return obj.value
        snapshot = directory.snapshot_of(oid)
        if snapshot is not None:
            return snapshot[1]
        return self.committed_value(oid)

    def scheduler_of(self, node: int) -> SchedulerPolicy:
        return self.proxies[node].scheduler

    def __repr__(self) -> str:
        return (
            f"<Cluster nodes={self.config.num_nodes} "
            f"scheduler={self.config.scheduler.value} now={self.env.now:.3f}>"
        )
