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

import repro.net.message as _message
from repro.core.config import ClusterConfig, SchedulerKind
from repro.core.metrics import MetricsCollector
from repro.dstm.directory import DirectoryShard
from repro.dstm.objects import home_node
from repro.dstm.proxy import TMProxy
from repro.dstm.tfa import TFAEngine
from repro.dstm.transaction import Transaction
from repro.net.clocks import NodeClock
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import Topology
from repro.rpc import LookupCache, RetryPolicy, RpcClient
from repro.scheduler.backoff import BackoffScheduler
from repro.scheduler.base import SchedulerPolicy
from repro.scheduler.rts import RtsScheduler
from repro.scheduler.tfa_baseline import TfaScheduler
from repro.sim import Environment, Process, RngRegistry, Tracer

# The import rule: an optional plane (prof, obs, payload, batcher, faults,
# check) is imported in the branch of ``Cluster.__init__`` that builds it,
# so a default cell's interpreter never loads it (DESIGN.md, "The import
# rule"; gated by tests/core/test_import_graph.py).
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check import Sanitizer
    from repro.faults import FaultPlan
    from repro.obs import LiveFold
    from repro.rpc.batch import PiggybackBatcher
    from repro.rpc.payload import PayloadPlane

__all__ = ["Cluster", "reset_run_ids"]

#: clock skew/drift bounds for the asynchronous node clocks
MAX_CLOCK_SKEW = 0.05
MAX_CLOCK_DRIFT = 1e-5
#: loopback delivery delay for node-local protocol messages (must be
#: positive: a zero-cost local conflict/retry cycle would let a spinning
#: transaction starve the event loop without advancing time)
LOCAL_LOOPBACK_DELAY = 2e-5


def reset_run_ids() -> None:
    """Restart the process-global transaction and message ids at 1.

    A run's ids (in its history, traces and exports) otherwise depend on
    what the process ran before, so a sweep cell, an explorer run or a
    chaos reproducer seed calls this first.  Never call it mid-run.
    """
    Transaction._ids = itertools.count(1)
    _message._msg_ids = itertools.count(1)


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
        # default ObsConfig(enabled=False) attaches no sink and leaves
        # the tracer exactly as trace/trace_categories configure it.
        oc = config.obs
        trace_cats = set(config.trace_categories) if config.trace_categories else None
        self.obs: Optional["LiveFold"] = None
        if oc.enabled:
            from repro.obs import OBS_CATEGORIES, JsonlSink, LiveFold

            if config.trace and trace_cats is None:
                cats = None  # the user asked for everything
            else:
                cats = set(OBS_CATEGORIES) | (trace_cats or set())
            self.tracer = Tracer(
                enabled=True, categories=cats, keep_records=config.trace
            )
            if oc.jsonl_path:
                self.tracer.attach_sink(JsonlSink(oc.jsonl_path))
            self.obs = self.tracer.attach_sink(LiveFold())
        else:
            self.tracer = Tracer(enabled=config.trace, categories=trace_cats)
        self.topology = Topology(
            config.num_nodes,
            self.rngs.stream("topology"),
            min_delay=config.min_link_delay,
            max_delay=config.max_link_delay,
        )
        self.network = Network(
            self.env, self.topology, tracer=self.tracer,
            local_delay=LOCAL_LOOPBACK_DELAY,
        )

        # Payload plane (repro.rpc.payload).  Strictly additive: the
        # default PayloadConfig(enabled=False) builds no plane and no
        # wire-cost model, so the timeline is byte-identical (pinned by
        # tests/rpc/test_equivalence.py).  Enabled, the control plane
        # still carries semantic values unchanged; the plane only models
        # bulk bytes (declared sizes, transfer + serialization delay,
        # lazy resolution).
        plc = config.payload
        self.payload_plane: Optional["PayloadPlane"] = None
        if plc.enabled:
            from repro.net.network import WireCostModel
            from repro.rpc.payload import (
                BANDWIDTH, CONTROL_SIZE, SER_PER_BYTE, PayloadPlane,
            )

            self.payload_plane = PayloadPlane(plc, config.num_nodes)
            self.network.cost = WireCostModel(BANDWIDTH, SER_PER_BYTE, CONTROL_SIZE)
        self.metrics = MetricsCollector()

        # RPC substrate (repro.rpc).  Strictly additive: the default
        # RpcConfig (window 0, hint-mode cache) builds no batcher and
        # never fences a lookup-cache entry, so same-seed runs are
        # byte-identical.
        rc = config.rpc
        self.batcher: Optional["PiggybackBatcher"] = None
        if rc.batch_window > 0.0:
            from repro.rpc.batch import PiggybackBatcher

            self.batcher = PiggybackBatcher(
                self.env, rc.batch_window, tracer=self.tracer
            ).install(self.network)
        self.rpc_clients: List[RpcClient] = []

        # Fault injection (repro.faults).  Strictly additive: with the
        # default FaultConfig(enabled=False) no fault plan, heartbeats,
        # leases or RPC timeouts exist and runs are identical to a build
        # without the subsystem.
        fc = config.faults
        self.fault_plan: Optional["FaultPlan"] = None
        policy: Optional[RetryPolicy] = None
        nested_retry_cap: Optional[int] = None
        if fc.enabled:
            from repro.faults import FaultPlan, HomeRecovery, NodeRecovery
            from repro.faults.recovery import NESTED_RETRY_CAP, RETRY_POLICY

            self.fault_plan = FaultPlan(
                fc, self.rngs.stream("faults"), config.num_nodes,
                metrics=self.metrics, tracer=self.tracer,
            ).install(self.network)
            policy = RETRY_POLICY
            nested_retry_cap = NESTED_RETRY_CAP

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

        clock_rng = self.rngs.stream("clocks")
        self.nodes: List[Node] = []
        self.directories: List[DirectoryShard] = []
        self.proxies: List[TMProxy] = []
        self.engines: List[TFAEngine] = []
        for node_id in range(config.num_nodes):
            clock = NodeClock(
                node_id,
                rng=clock_rng,
                max_skew=MAX_CLOCK_SKEW,
                max_drift=MAX_CLOCK_DRIFT,
            )
            node = Node(self.env, self.network, node_id, clock=clock,
                        msg_process_time=config.msg_process_time)
            directory = DirectoryShard(node, tracer=self.tracer)
            scheduler = self._make_scheduler(node_id)
            rpc_client = RpcClient(
                node,
                policy=policy,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            self.rpc_clients.append(rpc_client)
            proxy = TMProxy(
                node,
                scheduler,
                tracer=self.tracer,
                conflict_scope=config.conflict_scope,
                rpc_client=rpc_client,
                cache=LookupCache(fencing=rc.cache),
            )
            if self.sanitizer is not None:
                self.sanitizer.attach_proxy(node_id, proxy)
                directory.sanitizer = self.sanitizer
                proxy.sanitizer = self.sanitizer
                proxy.owner_hints.sanitizer = self.sanitizer
            if self.payload_plane is not None:
                proxy.payload = self.payload_plane.nodes[node_id].attach(
                    rpc_client, self.sanitizer
                )
            if fc.enabled:
                directory.recovery = HomeRecovery(directory, proxy, self.metrics)
                proxy.recovery = NodeRecovery(proxy, directory.recovery)
            engine = TFAEngine(
                proxy,
                self.metrics,
                nesting=config.nesting,
                abort_overhead=config.abort_overhead,
                nested_retry_cap=nested_retry_cap,
            )
            if self.sanitizer is not None:
                engine.sanitizer = self.sanitizer
            self.nodes.append(node)
            self.directories.append(directory)
            self.proxies.append(proxy)
            self.engines.append(engine)

        if fc.enabled:
            for node_id, proxy in enumerate(self.proxies):
                self.env.process(
                    proxy.recovery.lease_heartbeat(), name=f"n{node_id}.heartbeat"
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
            return RtsScheduler(cfg.cl_threshold)
        if kind is SchedulerKind.TFA:
            return TfaScheduler()
        if kind is SchedulerKind.TFA_BACKOFF:
            return BackoffScheduler(rng=self.rngs.stream(f"backoff[{node_id}]"))
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
        # The initial value doubles as the home's first committed
        # snapshot.
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

    def spawn(self, generator: Generator, name: Optional[str] = None) -> Process:
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
        """Close the JSONL export and return the live fold's
        ``{"events", "phases"}``.

        No-op (returns None) when the obs layer is disabled.  Idempotent
        for the summary; the file sink is closed on the first call.
        """
        if self.obs is None:
            return None
        self.tracer.close_sinks()
        return self.obs.summary()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    def rpc_cache_stats(self) -> Dict[str, float]:
        """Cluster-wide lookup-cache counters (zeros when never probed)."""
        caches = [p.owner_hints for p in self.proxies]
        hits = sum(c.hits for c in caches)
        misses = sum(c.misses for c in caches)
        probes = hits + misses
        return {
            "cache_hits": float(hits),
            "cache_misses": float(misses),
            "cache_hit_rate": hits / probes if probes else 0.0,
            "cache_fences": float(sum(c.fences for c in caches)),
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
            # bytes riding control-plane grants/hand-offs: constant
            # ObjectProxy descriptors, whatever the payload size
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
        authority; if that copy is gone (owner crashed mid-transfer), or
        the next directory read would reclaim the entry, the home's
        recovery snapshot is — that is exactly what a reclaim re-hosts.
        A read-only check: it never acts on the reclaim it predicts.
        """
        home = home_node(oid, self.config.num_nodes)
        directory = self.directories[home]
        recovery = directory.recovery
        entry = directory.entry(oid)
        if entry is not None and not (
            recovery is not None and recovery.reclaimable(oid)
        ):
            obj = self.proxies[entry.owner].store.get(oid)
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
