"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`
to a :class:`~repro.net.network.Network`.

The injector sits on the network's two seams: :meth:`on_send` maps each
outbound message to a list of delivery delays (empty = dropped, two
entries = duplicated), and :meth:`on_deliver` vetoes arrivals at crashed
destinations.  It only *observes and filters*; all recovery behaviour
(RPC retries, leases, abort-on-owner-failure) lives in the protocol
layers, exactly as it would against a real lossy network.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.faults.plan import CrashWindow, FaultPlan, PartitionWindow
from repro.net.message import Message
from repro.sim import Environment, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import MetricsCollector
    from repro.net.network import Network

__all__ = ["FaultInjector"]


class FaultInjector:
    """Wires a fault plan into a network's send/deliver path."""

    def __init__(
        self,
        plan: FaultPlan,
        metrics: Optional["MetricsCollector"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.plan = plan
        self.metrics = metrics
        self.tracer = tracer or Tracer()
        self.network: Optional["Network"] = None
        # Local tallies (unit tests and diagnostics; metrics mirrors them)
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.delivery_drops = 0

    def install(self, network: "Network") -> "FaultInjector":
        if network.injector is not None:
            raise ValueError("network already has a fault injector")
        network.injector = self
        self.network = network
        self._schedule_window_traces(network.env)
        return self

    # -- network seams ---------------------------------------------------

    def on_send(self, msg: Message, base_delay: float) -> List[float]:
        """Delivery delays for ``msg`` (empty list = dropped)."""
        env = self.network.env
        fate = self.plan.message_fate(msg.src, msg.dst, env.now)
        if not fate.delivered:
            self._count_drop()
            if self.tracer.wants("fault.drop"):
                self.tracer.emit(
                    env.now, "fault.drop", f"msg{msg.msg_id}",
                    mtype=msg.mtype.value, src=msg.src, dst=msg.dst,
                    reason=fate.drop_reason,
                )
            return []
        delay = base_delay + fate.extra_delay
        if fate.extra_delay > 0.0:
            self.delayed += 1
            if self.tracer.wants("fault.delay"):
                self.tracer.emit(
                    env.now, "fault.delay", f"msg{msg.msg_id}",
                    mtype=msg.mtype.value, extra=fate.extra_delay,
                )
        delays = [delay]
        if fate.duplicated:
            self.duplicated += 1
            if self.metrics is not None:
                self.metrics.fault_duplicates.increment()
            if self.tracer.wants("fault.dup"):
                self.tracer.emit(
                    env.now, "fault.dup", f"msg{msg.msg_id}",
                    mtype=msg.mtype.value, src=msg.src, dst=msg.dst,
                )
            delays.append(delay)
        return delays

    def on_deliver(self, msg: Message) -> bool:
        """False when the destination is crashed at arrival time.

        Loopback is exempt here too: a crashed node is isolated from the
        network, but its own process keeps running.
        """
        env = self.network.env
        if msg.src != msg.dst and self.plan.deliver_blocked(msg.dst, env.now):
            self.delivery_drops += 1
            self._count_drop()
            if self.tracer.wants("fault.drop"):
                self.tracer.emit(
                    env.now, "fault.drop", f"msg{msg.msg_id}",
                    mtype=msg.mtype.value, src=msg.src, dst=msg.dst,
                    reason="dst_crashed",
                )
            return False
        return True

    # -- internals -------------------------------------------------------

    def _count_drop(self) -> None:
        self.dropped += 1
        if self.metrics is not None:
            self.metrics.fault_drops.increment()

    def _schedule_window_traces(self, env: Environment) -> None:
        """Emit crash/restart trace events at their scheduled instants.

        Only scheduled when the tracer actually wants the category, so an
        untraced run's event stream is untouched.
        """
        if self.tracer.wants("fault.crash"):

            def emit_crash(w: CrashWindow) -> None:
                self.tracer.emit(env.now, "fault.crash", f"n{w.node}", until=w.end)

            def emit_restart(w: CrashWindow) -> None:
                self.tracer.emit(env.now, "fault.restart", f"n{w.node}", since=w.start)

            for w in self.plan.crashes:
                env.call_later(max(w.start - env.now, 0.0), emit_crash, w)
                env.call_later(max(w.end - env.now, 0.0), emit_restart, w)

        if self.tracer.wants("fault.partition"):

            def emit_part(marker: Tuple[int, PartitionWindow]) -> None:
                idx, w = marker
                self.tracer.emit(
                    env.now, "fault.partition", f"part{idx}",
                    group=",".join(str(n) for n in w.group), until=w.end,
                )

            def emit_part_end(marker: Tuple[int, PartitionWindow]) -> None:
                idx, w = marker
                self.tracer.emit(
                    env.now, "fault.partition_end", f"part{idx}", since=w.start
                )

            for i, w in enumerate(self.plan.partitions):
                env.call_later(max(w.start - env.now, 0.0), emit_part, (i, w))
                env.call_later(max(w.end - env.now, 0.0), emit_part_end, (i, w))

    def __repr__(self) -> str:
        return (
            f"<FaultInjector dropped={self.dropped} dup={self.duplicated} "
            f"delayed={self.delayed}>"
        )
