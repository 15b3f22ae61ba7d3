"""The fault plan: crash/partition schedules, per-message fates, and the
network's one fault seam.

A :class:`FaultPlan` is built once per cluster from the config-seeded
``"faults"`` RNG stream and installed onto the cluster's
:class:`~repro.net.network.Network`.  The schedule part (crash and
partition windows) is generated eagerly over ``[0, schedule_horizon)``
at construction; the per-message part (drop / duplicate / extra delay)
draws lazily from the same stream, in network send order.  Both are
therefore pure functions of ``(seed, FaultConfig, num_nodes)``:
identical seeds give identical fault timelines, which is what makes
chaos runs bit-reproducible.

Every fault class shares that one stream, so turning one class on or
off re-deals the others: enabling crashes shifts the draws the partition
schedule starts from (it moves every partition window), and a nonzero
drop rate consumes a draw per message ahead of the duplicate and delay
draws (with a seed-7 stream and duplicate rate 0.2, raising the drop
rate from 0 to 0.05 changes 66 of the first 200 duplicate decisions).
Bisecting a failing plan by fault class therefore changes more than the
class it removes.

Crash model: **fail-isolate**.  A crashed node exchanges no messages for
the duration of its window (sends are dropped at the source, in-flight
deliveries are dropped at the destination), but its volatile state — the
object store, directory shard, clocks — survives, as with a process that
is SIGSTOPped or cut off by its NIC.  Node-local loopback traffic is
exempt: the process itself keeps running, it is merely unreachable.
Each crash is drawn from the end of the one before, so the crash
windows never overlap one another; they may overlap partitions.

The network asks the plan about each send (:meth:`FaultPlan.on_send`)
and each arrival (:meth:`FaultPlan.on_deliver`).  The plan only
*observes and filters*; all recovery (RPC retries, leases,
abort-on-owner-failure) lives in the protocol layers, as it would
against a real lossy network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.config import FaultConfig
from repro.sim import Environment, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import MetricsCollector
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.sim.rng import Stream

__all__ = ["CrashWindow", "FaultPlan", "PartitionWindow"]


@dataclass(frozen=True)
class CrashWindow:
    """Node ``node`` is unreachable during ``[start, end)``."""

    node: int
    start: float
    end: float

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class PartitionWindow:
    """Links between ``group`` and its complement are cut in ``[start, end)``."""

    group: Tuple[int, ...]
    start: float
    end: float

    def blocks(self, a: int, b: int, t: float) -> bool:
        if not self.start <= t < self.end:
            return False
        return (a in self.group) != (b in self.group)


class FaultPlan:
    """The concrete fault timeline for one simulated run, and the seam
    through which it acts on a network."""

    def __init__(
        self,
        config: FaultConfig,
        rng: Stream,
        num_nodes: int,
        metrics: Optional["MetricsCollector"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config
        self.num_nodes = int(num_nodes)
        self._rng = rng
        self.metrics = metrics
        self.tracer = tracer or Tracer()
        self.network: Optional["Network"] = None
        # Generation order is fixed (crashes, then partitions, then lazy
        # per-message draws) so the stream decomposes deterministically.
        self.crashes: List[CrashWindow] = self._gen_crashes(rng)
        self.partitions: List[PartitionWindow] = self._gen_partitions(rng)

    # -- schedule generation --------------------------------------------

    def _gen_crashes(self, rng: Stream) -> List[CrashWindow]:
        cfg = self.config
        windows: List[CrashWindow] = []
        if cfg.crash_rate <= 0.0 or self.num_nodes < 2:
            return windows
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / cfg.crash_rate))
            if t >= cfg.schedule_horizon:
                break
            node = int(rng.integers(self.num_nodes))
            duration = cfg.crash_duration * float(rng.uniform(0.5, 1.5))
            windows.append(CrashWindow(node, t, t + duration))
            t += duration
        return windows

    def _gen_partitions(self, rng: Stream) -> List[PartitionWindow]:
        cfg = self.config
        windows: List[PartitionWindow] = []
        if cfg.partition_rate <= 0.0 or self.num_nodes < 3:
            return windows
        max_group = max(1, self.num_nodes // 2)
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / cfg.partition_rate))
            if t >= cfg.schedule_horizon:
                break
            size = int(rng.integers(1, max_group + 1))
            group = tuple(
                sorted(int(i) for i in rng.choice(self.num_nodes, size=size, replace=False))
            )
            duration = cfg.partition_duration * float(rng.uniform(0.5, 1.5))
            windows.append(PartitionWindow(group, t, t + duration))
        return windows

    # -- schedule queries -----------------------------------------------

    def is_crashed(self, node: int, t: float) -> bool:
        return any(w.node == node and w.active(t) for w in self.crashes)

    def link_blocked(self, a: int, b: int, t: float) -> bool:
        return any(w.blocks(a, b, t) for w in self.partitions)

    # -- the network seam ------------------------------------------------

    def install(self, network: "Network") -> "FaultPlan":
        if network.faults is not None:
            raise ValueError("network already has a fault plan")
        network.faults = self
        self.network = network
        self._schedule_window_traces(network.env)
        return self

    def on_send(self, msg: "Message", base_delay: float) -> List[float]:
        """Delivery delays for ``msg``: none = dropped, two = duplicated.

        Loopback never fails: a crashed node is isolated, not dead.  A
        remote send draws only for the enabled probabilistic classes, in
        the order drop, duplicate, extra delay (module docstring).
        """
        src = msg.src
        dst = msg.dst
        if src == dst:
            return [base_delay]
        now = self.network.env.now
        cfg = self.config
        rng = self._rng
        if self.is_crashed(src, now):
            return self._drop(msg, "src_crashed")
        if self.link_blocked(src, dst, now):
            return self._drop(msg, "partition")
        if cfg.drop_rate > 0.0 and rng.random() < cfg.drop_rate:
            return self._drop(msg, "drop")
        duplicated = cfg.duplicate_rate > 0.0 and rng.random() < cfg.duplicate_rate
        extra = 0.0
        if (
            cfg.extra_delay_rate > 0.0
            and cfg.extra_delay_max > 0.0
            and rng.random() < cfg.extra_delay_rate
        ):
            extra = float(rng.uniform(0.0, cfg.extra_delay_max))
        tracer = self.tracer
        delay = base_delay + extra
        if extra > 0.0 and tracer.wants("fault.delay"):
            tracer.emit(
                now, "fault.delay", f"msg{msg.msg_id}",
                mtype=msg.mtype.value, extra=extra,
            )
        if not duplicated:
            return [delay]
        if self.metrics is not None:
            self.metrics.fault_duplicates.increment()
        if tracer.wants("fault.dup"):
            tracer.emit(
                now, "fault.dup", f"msg{msg.msg_id}",
                mtype=msg.mtype.value, src=src, dst=dst,
            )
        return [delay, delay]

    def on_deliver(self, msg: "Message") -> bool:
        """False when the destination is crashed at arrival time.

        Loopback is exempt here too.  Partitions do not affect in-flight
        messages: they cut links at send time, and these were already on
        the wire.
        """
        if msg.src == msg.dst or not self.is_crashed(msg.dst, self.network.env.now):
            return True
        self._drop(msg, "dst_crashed")
        return False

    # -- internals -------------------------------------------------------

    def _drop(self, msg: "Message", reason: str) -> List[float]:
        if self.metrics is not None:
            self.metrics.fault_drops.increment()
        if self.tracer.wants("fault.drop"):
            self.tracer.emit(
                self.network.env.now, "fault.drop", f"msg{msg.msg_id}",
                mtype=msg.mtype.value, src=msg.src, dst=msg.dst, reason=reason,
            )
        return []

    def _schedule_window_traces(self, env: Environment) -> None:
        """Emit crash/restart and partition trace events at their
        scheduled instants.

        Only scheduled when the tracer actually wants the category, so an
        untraced run's event stream is untouched.
        """
        marks = []
        if self.tracer.wants("fault.crash"):
            for w in self.crashes:
                marks.append((w.start, ("fault.crash", f"n{w.node}", {"until": w.end})))
                marks.append((w.end, ("fault.restart", f"n{w.node}", {"since": w.start})))
        if self.tracer.wants("fault.partition"):
            for i, w in enumerate(self.partitions):
                group = ",".join(str(n) for n in w.group)
                marks.append((w.start, ("fault.partition", f"part{i}",
                                        {"group": group, "until": w.end})))
                marks.append((w.end, ("fault.partition_end", f"part{i}",
                                      {"since": w.start})))
        for t, mark in marks:
            env.call_later(max(t - env.now, 0.0), self._emit_mark, mark)

    def _emit_mark(self, mark: Tuple[str, str, Dict[str, Any]]) -> None:
        category, subject, details = mark
        self.tracer.emit(self.network.env.now, category, subject, **details)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan nodes={self.num_nodes} crashes={len(self.crashes)} "
            f"partitions={len(self.partitions)}>"
        )
