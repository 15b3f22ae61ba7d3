"""Per-node and per-object time-series derived from the event stream.

The report CLI (:mod:`repro.obs.report`) feeds the tracker a run's
schema events (see :mod:`repro.obs.events`) in time order; it maintains:

* **per node** — windowed commit/abort counts (throughput and abort-rate
  series), RPC issue/failure totals, lookup-cache hit/miss counts
  (``rpc.cache`` events), an RPC in-flight gauge
  (:class:`~repro.sim.monitor.TimeWeighted`) and an *unreachability EWMA*
  fed from RPC outcomes and crash/restart fault events.  A node whose
  EWMA is high has recently timed out or crashed.
* **per object** — a queue-depth gauge (``obs.queue`` events), conflict
  counts (``dstm.conflict``) and ownership-migration counts
  (``dir.owner``): the top-contended-objects view.
* **global** — the scheduler-decision histogram keyed ``(action, cause)``,
  piggyback-batching totals (``rpc.batch`` events) and a bounded fault
  timeline.

State is O(nodes + objects + windows), never O(events), so the report
reads arbitrarily long logs in bounded memory.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.monitor import TimeWeighted
from repro.util.stats import Ewma

__all__ = [
    "NodeSeries", "ObjectSeries", "PayloadSeries", "SeriesTracker",
    "TrafficSeries", "WINDOW",
]

#: per-node throughput/abort bucketing window (simulated seconds)
WINDOW = 0.25
#: cap on the retained fault timeline (drops are counted, not silent)
FAULT_TIMELINE_CAP = 4096


class NodeSeries:
    """Aggregates for one node (keyed by tag ``n<id>``)."""

    __slots__ = (
        "tag", "commits", "aborts", "rpc_issued", "rpc_failed",
        "cache_hits", "cache_misses", "inflight", "unreach", "windows",
    )

    def __init__(self, tag: str, start_time: float) -> None:
        self.tag = tag
        self.commits = 0
        self.aborts = 0
        self.rpc_issued = 0
        self.rpc_failed = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.inflight = TimeWeighted(f"{tag}.rpc_inflight", start_time=start_time)
        #: 0 = every probe answered, 1 = every probe timed out/crashed
        self.unreach = Ewma(alpha=0.2, initial=0.0)
        #: window index -> [commits, aborts]
        self.windows: Dict[int, List[int]] = {}

    def bucket(self, idx: int) -> List[int]:
        b = self.windows.get(idx)
        if b is None:
            b = [0, 0]
            self.windows[idx] = b
        return b


class ObjectSeries:
    """Aggregates for one shared object."""

    __slots__ = ("oid", "conflicts", "migrations", "queue", "queue_max")

    def __init__(self, oid: str, start_time: float) -> None:
        self.oid = oid
        self.conflicts = 0
        self.migrations = 0
        self.queue = TimeWeighted(f"{oid}.queue", start_time=start_time)
        self.queue_max = 0


class TrafficSeries:
    """Admission-plane aggregates for one node (open-loop runs only)."""

    __slots__ = ("tag", "offered", "admitted", "shed", "depth", "depth_max",
                 "depth_windows", "dispatched", "wait_total", "wait_max")

    def __init__(self, tag: str, start_time: float) -> None:
        self.tag = tag
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.depth = TimeWeighted(f"{tag}.admission", start_time=start_time)
        self.depth_max = 0
        #: window index -> peak queue depth within the window (the p95
        #: over these stays O(windows), never O(events))
        self.depth_windows: Dict[int, int] = {}
        #: arrivals that left the queue and started (traffic.dispatch)
        self.dispatched = 0
        #: total / max admission wait over dispatched arrivals
        self.wait_total = 0.0
        self.wait_max = 0.0


class PayloadSeries:
    """Payload-plane resolve aggregates for one node."""

    __slots__ = ("tag", "hits", "misses", "bytes")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        #: resolved-bytes cache probes at the grant's version fence
        self.hits = 0
        self.misses = 0
        #: bulk bytes pulled by this node's misses
        self.bytes = 0


class SeriesTracker:
    """Streaming reducer over the observability event stream."""

    def __init__(self, window: float = WINDOW) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = float(window)
        self.nodes: Dict[str, NodeSeries] = {}
        self.objects: Dict[str, ObjectSeries] = {}
        #: (action, cause) -> count
        self.decisions: Dict[Tuple[str, str], int] = {}
        #: piggyback batching (``rpc.batch`` events): flushes, coalesced
        #: messages, and the largest single batch seen
        self.batches = 0
        self.batched_messages = 0
        self.max_batch = 0
        self.faults: List[Tuple[float, str, str]] = []
        self.faults_dropped = 0
        #: per-node admission-plane series (empty unless traffic.* seen)
        self.traffic: Dict[str, TrafficSeries] = {}
        #: per-node payload-plane series (empty unless payload.fetch seen)
        self.payload: Dict[str, PayloadSeries] = {}
        self.events = 0
        self.t_min: Optional[float] = None
        self.t_max: float = 0.0

    # -- feeding ---------------------------------------------------------

    def _node(self, key: Any, t: float) -> NodeSeries:
        tag = key if isinstance(key, str) else f"n{key}"
        series = self.nodes.get(tag)
        if series is None:
            series = NodeSeries(tag, start_time=t)
            self.nodes[tag] = series
        return series

    def _object(self, oid: str, t: float) -> ObjectSeries:
        series = self.objects.get(oid)
        if series is None:
            series = ObjectSeries(oid, start_time=t)
            self.objects[oid] = series
        return series

    def _traffic(self, key: Any, t: float) -> TrafficSeries:
        tag = key if isinstance(key, str) else f"n{key}"
        series = self.traffic.get(tag)
        if series is None:
            series = TrafficSeries(tag, start_time=t)
            self.traffic[tag] = series
        return series

    def feed(self, event: Dict[str, Any]) -> None:
        t = event["t"]
        cat = event["cat"]
        self.events += 1
        if self.t_min is None:
            self.t_min = t
        if t > self.t_max:
            self.t_max = t

        if cat == "span.end":
            if event.get("depth", 0) == 0:
                node = self._node(event["node"], t)
                bucket = node.bucket(int(t / self.window))
                if event["outcome"] == "commit":
                    node.commits += 1
                    bucket[0] += 1
                else:
                    node.aborts += 1
                    bucket[1] += 1
        elif cat == "rpc.issue":
            node = self._node(event["node"], t)
            node.rpc_issued += 1
            node.inflight.add(t, 1.0)
        elif cat == "rpc.done":
            node = self._node(event["node"], t)
            node.inflight.add(t, -1.0)
            dst = self._node(event["dst"], t)
            if event["ok"]:
                dst.unreach.observe(0.0)
            else:
                node.rpc_failed += 1
                dst.unreach.observe(1.0)
        elif cat == "rpc.cache":
            node = self._node(event["node"], t)
            if event["hit"]:
                node.cache_hits += 1
            else:
                node.cache_misses += 1
        elif cat == "payload.fetch":
            tag = event["node"]
            ps = self.payload.get(tag)
            if ps is None:
                ps = PayloadSeries(tag)
                self.payload[tag] = ps
            if event["hit"]:
                ps.hits += 1
            else:
                ps.misses += 1
                ps.bytes += int(event.get("bytes", 0))
        elif cat == "rpc.batch":
            size = int(event["size"])
            self.batches += 1
            self.batched_messages += size
            if size > self.max_batch:
                self.max_batch = size
        elif cat == "obs.queue":
            obj = self._object(event["sub"], t)
            depth = int(event["len"])
            obj.queue.update(t, depth)
            if depth > obj.queue_max:
                obj.queue_max = depth
        elif cat == "dstm.conflict":
            self._object(event["sub"], t).conflicts += 1
        elif cat == "dir.owner":
            self._object(event["sub"], t).migrations += 1
        elif cat == "traffic.arrival":
            tr = self._traffic(event["node"], t)
            tr.offered += 1
            if event["admitted"]:
                tr.admitted += 1
            else:
                tr.shed += 1
        elif cat == "traffic.dispatch":
            tr = self._traffic(event["node"], t)
            tr.dispatched += 1
            waited = float(event["waited"])
            tr.wait_total += waited
            if waited > tr.wait_max:
                tr.wait_max = waited
        elif cat == "traffic.queue":
            tr = self._traffic(event["node"], t)
            depth = int(event["len"])
            tr.depth.update(t, depth)
            if depth > tr.depth_max:
                tr.depth_max = depth
            idx = int(t / self.window)
            if depth > tr.depth_windows.get(idx, 0):
                tr.depth_windows[idx] = depth
        elif cat == "sched.decision":
            key = (event["action"], event.get("cause", ""))
            self.decisions[key] = self.decisions.get(key, 0) + 1
        elif cat.startswith("fault."):
            if cat == "fault.rpc_retry":
                # A timed-out attempt is one failed reachability probe.
                self._node(event["dst"], t).unreach.observe(1.0)
            elif cat == "fault.crash":
                self._node(event["sub"], t).unreach.observe(1.0)
            elif cat == "fault.restart":
                self._node(event["sub"], t).unreach.observe(0.0)
            if len(self.faults) < FAULT_TIMELINE_CAP:
                self.faults.append((t, cat, event["sub"]))
            else:
                self.faults_dropped += 1

    # -- snapshots -------------------------------------------------------

    @property
    def duration(self) -> float:
        if self.t_min is None:
            return 0.0
        return self.t_max - self.t_min

    def node_rows(self) -> List[Dict[str, Any]]:
        """Per-node summary rows (sorted by node tag)."""
        span = self.duration
        now = self.t_max
        rows = []
        for tag in sorted(self.nodes, key=_node_sort_key):
            n = self.nodes[tag]
            attempts = n.commits + n.aborts
            probes = n.cache_hits + n.cache_misses
            peak = max((b[0] for b in n.windows.values()), default=0)
            rows.append(
                {
                    "node": tag,
                    "commits": n.commits,
                    "aborts": n.aborts,
                    "abort_ratio": n.aborts / attempts if attempts else 0.0,
                    "throughput": n.commits / span if span > 0 else 0.0,
                    "peak_window_tps": peak / self.window,
                    "rpc_issued": n.rpc_issued,
                    "rpc_failed": n.rpc_failed,
                    "mean_inflight": n.inflight.average(now),
                    "unreach": n.unreach.value,
                    "cache_hits": n.cache_hits,
                    "cache_misses": n.cache_misses,
                    "cache_hit_rate": n.cache_hits / probes if probes else 0.0,
                }
            )
        return rows

    def object_rows(self, top: int = 10) -> List[Dict[str, Any]]:
        """Most-contended objects, by conflict count."""
        now = self.t_max
        ranked = sorted(
            self.objects.values(), key=lambda o: (-o.conflicts, o.oid)
        )
        return [
            {
                "oid": o.oid,
                "conflicts": o.conflicts,
                "migrations": o.migrations,
                "mean_queue": o.queue.average(now),
                "max_queue": o.queue_max,
            }
            for o in ranked[:top]
        ]

    def decision_rows(self) -> List[Dict[str, Any]]:
        return [
            {"action": action, "cause": cause, "count": count}
            for (action, cause), count in sorted(self.decisions.items())
        ]

    def batch_row(self) -> Dict[str, Any]:
        """Cluster-wide piggyback-batching summary."""
        return {
            "batches": self.batches,
            "batched_messages": self.batched_messages,
            "mean_batch": (
                self.batched_messages / self.batches if self.batches else 0.0
            ),
            "max_batch": self.max_batch,
        }

    def traffic_rows(self) -> List[Dict[str, Any]]:
        """Per-node admission-plane rows (sorted by node tag)."""
        span = self.duration
        now = self.t_max
        rows = []
        for tag in sorted(self.traffic, key=_node_sort_key):
            tr = self.traffic[tag]
            rows.append(
                {
                    "node": tag,
                    "offered": tr.offered,
                    "admitted": tr.admitted,
                    "shed": tr.shed,
                    "shed_rate": tr.shed / tr.offered if tr.offered else 0.0,
                    "offered_rate": tr.offered / span if span > 0 else 0.0,
                    "dispatched": tr.dispatched,
                    "mean_wait": (
                        tr.wait_total / tr.dispatched if tr.dispatched else 0.0
                    ),
                    "max_wait": tr.wait_max,
                    "mean_depth": tr.depth.average(now),
                    "max_depth": tr.depth_max,
                    "p95_depth": _percentile(list(tr.depth_windows.values()), 95.0),
                }
            )
        return rows

    def traffic_summary(self) -> Dict[str, Any]:
        """Cluster-wide admission-plane totals (open-loop runs only)."""
        span = self.duration
        offered = sum(tr.offered for tr in self.traffic.values())
        admitted = sum(tr.admitted for tr in self.traffic.values())
        shed = sum(tr.shed for tr in self.traffic.values())
        committed = sum(n.commits for n in self.nodes.values())
        depths = [
            d for tr in self.traffic.values() for d in tr.depth_windows.values()
        ]
        return {
            "offered": offered,
            "admitted": admitted,
            "shed": shed,
            "committed": committed,
            "offered_rate": offered / span if span > 0 else 0.0,
            "admitted_rate": admitted / span if span > 0 else 0.0,
            "committed_rate": committed / span if span > 0 else 0.0,
            "shed_rate": shed / offered if offered else 0.0,
            "p95_depth": _percentile(depths, 95.0),
            "nodes": self.traffic_rows(),
        }

    def payload_rows(self) -> List[Dict[str, Any]]:
        """Per-node payload-plane resolve rows (sorted by node tag)."""
        rows = []
        for tag in sorted(self.payload, key=_node_sort_key):
            ps = self.payload[tag]
            probes = ps.hits + ps.misses
            rows.append(
                {
                    "node": tag,
                    "resolves": probes,
                    "hits": ps.hits,
                    "misses": ps.misses,
                    "hit_rate": ps.hits / probes if probes else 0.0,
                    "fetched_bytes": ps.bytes,
                }
            )
        return rows

    def payload_summary(self) -> Dict[str, Any]:
        """Cluster-wide payload-plane resolve totals."""
        hits = sum(ps.hits for ps in self.payload.values())
        misses = sum(ps.misses for ps in self.payload.values())
        probes = hits + misses
        return {
            "resolves": probes,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / probes if probes else 0.0,
            "fetched_bytes": sum(ps.bytes for ps in self.payload.values()),
            "nodes": self.payload_rows(),
        }


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-len(ordered) * q // 100)))  # ceil(n * q / 100)
    return float(ordered[min(rank, len(ordered)) - 1])


def _node_sort_key(tag: str) -> Tuple[int, str]:
    if tag.startswith("n") and tag[1:].isdigit():
        return (int(tag[1:]), "")
    return (1 << 30, tag)
