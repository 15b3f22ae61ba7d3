"""The message transport.

Reliable, in-order-per-link delivery: a message sent at time *t* over link
(src, dst) arrives at ``t + topology.delay(src, dst)``.  Delays are static
(per §IV-A of the paper), so per-link FIFO order follows from the event
queue's deterministic tie-breaking.  Local sends (src == dst) are delivered
after ``local_delay`` (default 0: a function call, not a network hop).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.message import Message, MessageType
from repro.net.topology import Topology
from repro.sim import Counter, Environment, Event, Timeout, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node

__all__ = ["Network", "WireCostModel"]


class WireCostModel:
    """Bytes-on-wire charging for remote messages (payload plane).

    Every remote message pays ``wire / bandwidth(src, dst) + wire *
    ser_per_byte`` of extra delay on top of the static link latency,
    where ``wire = control_size + msg.wire_bytes`` — a fixed control
    envelope plus whatever payload bytes the sender attached.  Installed
    on the :class:`Network` only when ``PayloadConfig.enabled``; a
    ``None`` model keeps the pre-payload timeline byte-identical.
    """

    __slots__ = ("bandwidth_of", "ser_per_byte", "control_size")

    def __init__(
        self,
        bandwidth_of: Callable[[int, int], float],
        ser_per_byte: float,
        control_size: int,
    ) -> None:
        self.bandwidth_of = bandwidth_of
        self.ser_per_byte = float(ser_per_byte)
        self.control_size = int(control_size)

    def extra_delay(self, src: int, dst: int, payload_bytes: int) -> float:
        wire = self.control_size + payload_bytes
        return (
            wire / self.bandwidth_of(src, dst) + wire * self.ser_per_byte
        )


class Network:
    """Connects :class:`~repro.net.node.Node` instances over a topology."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        tracer: Optional[Tracer] = None,
        local_delay: float = 0.0,
    ) -> None:
        self.env = env
        self.topology = topology
        #: the topology's static delay table, indexed ``[src][dst]`` per send
        self._delay_rows = topology.delay_rows
        #: THE delivery callback, bound once: every delivery Timeout that
        #: :meth:`send` or :meth:`deliver_batch` schedules fires this
        self._on_arrival = self._deliver
        self.tracer = tracer or Tracer()
        self.local_delay = float(local_delay)
        self._nodes: Dict[int, "Node"] = {}
        #: optional :class:`repro.faults.FaultInjector`; when set, it
        #: decides each message's fate (drop / duplicate / extra delay)
        #: at send time and can veto delivery (crashed destination).
        self.injector = None
        #: optional :class:`repro.rpc.PiggybackBatcher`; when set, remote
        #: sends coalesce per link for one window before flushing (local
        #: sends never batch — they are function calls, not wire traffic).
        self.batcher = None
        #: optional :class:`WireCostModel`; when set, every remote send
        #: additionally pays a bytes-on-wire transfer + serialization
        #: delay and the byte counters below accumulate.
        self.cost: Optional[WireCostModel] = None
        # Instrumentation
        self.messages_sent = Counter("net.messages_sent")
        self.messages_delivered = Counter("net.messages_delivered")
        self.total_delay = 0.0
        self.per_type: Dict[MessageType, int] = {}
        #: control-envelope bytes shipped over remote links (cost model on)
        self.control_bytes = 0
        #: payload-plane bytes shipped over remote links (cost model on)
        self.payload_bytes = 0

    # -- membership -----------------------------------------------------------

    def attach(self, node: "Node") -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already attached")
        if not 0 <= node.node_id < self.topology.num_nodes:
            raise ValueError(
                f"node id {node.node_id} outside topology of "
                f"{self.topology.num_nodes} nodes"
            )
        self._nodes[node.node_id] = node

    def node(self, node_id: int) -> "Node":
        return self._nodes[node_id]

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    # -- transport ----------------------------------------------------------------

    def send(self, msg: Message) -> float:
        """Dispatch ``msg``; returns the scheduled delivery time."""
        src = msg.src
        dst = msg.dst
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node {dst}")
        env = self.env
        now = env._now
        mtype = msg.mtype
        remote = src != dst
        msg.sent_at = now
        delay = self._delay_rows[src][dst] if remote else self.local_delay
        cost = self.cost
        if cost is not None and remote:
            delay += cost.extra_delay(src, dst, msg.wire_bytes)
            self.control_bytes += cost.control_size
            self.payload_bytes += msg.wire_bytes
        self.messages_sent.value += 1
        per_type = self.per_type
        per_type[mtype] = per_type.get(mtype, 0) + 1
        self.total_delay += delay
        tracer = self.tracer
        if tracer.enabled and tracer.wants("net.send"):
            tracer.emit(
                now, "net.send", f"msg{msg.msg_id}",
                mtype=mtype.value, src=src, dst=dst, delay=delay,
            )
        if self.batcher is not None and remote:
            return self.batcher.enqueue(msg, delay)
        if self.injector is not None:
            delays = self.injector.on_send(msg, delay)
            if not delays:
                return now + delay  # dropped on the wire
            for i, d in enumerate(delays):
                member = msg if i == 0 else self._clone(msg)
                Timeout(env, d, member).callbacks.append(self._on_arrival)
            return now + delays[0]
        Timeout(env, delay, msg).callbacks.append(self._on_arrival)
        return now + delay

    def _clone(self, msg: Message) -> Message:
        """A duplicate delivery: fresh msg_id (the wire re-delivered the
        datagram; it is *not* the same RPC), deep-copied payload.  The
        deep copy matters: hand-off payloads nest mutable state (requester
        queues, proxy/fence dicts) that the first delivery's receiver
        absorbs and mutates — a shallow copy would alias the duplicate to
        that now-live state instead of re-delivering the original bytes."""
        dup = Message(
            msg.mtype, msg.src, msg.dst, copy.deepcopy(msg.payload),
            msg.clock, msg.reply_to, msg.wire_bytes,
        )
        dup.sent_at = msg.sent_at
        return dup

    def _deliver(self, event: Event) -> None:
        """The delivery callback of every link-delay Timeout.  It stays a
        method of ``Network``: the kernel profiler, the ledger's
        ``net.events_per_msg`` and the explorer attribute delivery events
        to the object that owns this callback."""
        self._deliver_one(event._value)

    def _deliver_one(self, msg: Message) -> None:
        if self.injector is not None and not self.injector.on_deliver(msg):
            return  # destination crashed while the message was in flight
        self.messages_delivered.value += 1
        dst = msg.dst
        tracer = self.tracer
        if tracer.enabled and tracer.wants("net.recv"):
            tracer.emit(
                self.env.now, "net.recv", f"msg{msg.msg_id}",
                mtype=msg.mtype.value, src=msg.src, dst=dst,
            )
        self._nodes[dst].deliver(msg)

    # -- batched path (repro.rpc.PiggybackBatcher) -------------------------

    def deliver_batch(self, batch) -> None:
        """Ship a flushed coalescing buffer: members whose fate is the
        plain link delay ride ONE traversal event; fault injection still
        judges each member individually, and a member the injector drops,
        duplicates, or delays falls back to its own scheduling."""
        riders = []
        link_delay = batch[0][1]
        for msg, delay in batch:
            if self.injector is None:
                riders.append(msg)
                continue
            delays = self.injector.on_send(msg, delay)
            for i, d in enumerate(delays):
                member = msg if i == 0 else self._clone(msg)
                if d == delay:
                    riders.append(member)
                else:
                    Timeout(self.env, d, member).callbacks.append(self._on_arrival)
        if riders:
            Timeout(self.env, link_delay, riders).callbacks.append(
                self._deliver_riders
            )

    def _deliver_riders(self, event: Event) -> None:
        for msg in event._value:
            self._deliver_one(msg)

    def broadcast(
        self,
        src: int,
        mtype: MessageType,
        payload_for: Callable[[int], Optional[dict]],
        clock: int = 0,
    ) -> int:
        """Send to every *other* node; ``payload_for(dst)`` may return None
        to skip a destination.  Returns the number of messages sent."""
        sent = 0
        for dst in sorted(self._nodes):
            if dst == src:
                continue
            payload = payload_for(dst)
            if payload is None:
                continue
            self.send(Message(mtype, src, dst, payload, clock=clock))
            sent += 1
        return sent

    # -- reporting ----------------------------------------------------------------

    def mean_message_delay(self) -> float:
        n = self.messages_sent.value
        return self.total_delay / n if n else 0.0

    def __repr__(self) -> str:
        return (
            f"<Network nodes={len(self._nodes)} "
            f"sent={self.messages_sent.value}>"
        )
