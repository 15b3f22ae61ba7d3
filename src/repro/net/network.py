"""The message transport.

Reliable, in-order-per-link delivery: a message sent at time *t* over link
(src, dst) arrives at ``t + topology.delay(src, dst)``.  Delays are static
(per §IV-A of the paper), so per-link FIFO order follows from the event
queue's deterministic tie-breaking.  Local sends (src == dst) are delivered
after ``local_delay`` (default 0: a function call, not a network hop).

A message in flight is one kernel *call* entry, not an event: the link
delay schedules the destination inbox's ``arrive(msg)``
(:class:`repro.net.node._InboxServer`), which applies the fault veto,
counts and traces the delivery and queues or dispatches the message.
Nothing waits on an arrival, so there is no Event to build
(``repro.sim.core``, "a timer that nobody waits on is a call").
"""

from __future__ import annotations

import copy
import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.net.message import Message, MessageType
from repro.net.topology import Topology
from repro.sim import PRIORITY_NORMAL, Counter, Environment, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.net.node import Node
    from repro.rpc.batch import PiggybackBatcher

__all__ = ["Network", "WireCostModel"]


class WireCostModel:
    """Bytes-on-wire charging for remote messages (payload plane).

    Every remote message pays ``wire / bandwidth + wire * ser_per_byte``
    of extra delay on top of the static link latency, where ``wire =
    control_size + msg.wire_bytes`` — a fixed control envelope plus
    whatever payload bytes the sender attached.  Every link shares the
    one ``bandwidth`` (bytes/second).  :meth:`Network.send` evaluates
    the formula inline, once per remote send; this object only holds its
    three constants.  Installed on the :class:`Network` only when
    ``PayloadConfig.enabled``; a ``None`` model keeps the pre-payload
    timeline byte-identical.
    """

    __slots__ = ("bandwidth", "ser_per_byte", "control_size")

    def __init__(
        self, bandwidth: float, ser_per_byte: float, control_size: int
    ) -> None:
        if not 0 < bandwidth < math.inf:  # false for NaN too
            raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth!r}")
        if not 0 <= ser_per_byte < math.inf:
            raise ValueError(
                f"ser_per_byte must be finite and >= 0, got {ser_per_byte!r}"
            )
        if control_size < 0:
            raise ValueError(f"control_size must be >= 0, got {control_size!r}")
        self.bandwidth = float(bandwidth)
        self.ser_per_byte = float(ser_per_byte)
        self.control_size = int(control_size)


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
        self.tracer = tracer or Tracer()
        self.local_delay = float(local_delay)
        self._nodes: Dict[int, "Node"] = {}
        #: node id -> its inbox's ``arrive``, bound once at attach: the
        #: function every arrival call entry runs
        self._arrivals: Dict[int, Callable[[Message], None]] = {}
        #: optional :class:`repro.faults.FaultPlan`; when set, it decides
        #: each message's fate (drop / duplicate / extra delay) at send
        #: time and can veto delivery (crashed destination).
        self.faults: Optional["FaultPlan"] = None
        #: optional :class:`repro.rpc.PiggybackBatcher`; when set, remote
        #: sends coalesce per link for one window before flushing (local
        #: sends never batch — they are function calls, not wire traffic).
        self.batcher: Optional["PiggybackBatcher"] = None
        #: optional :class:`WireCostModel`; when set, every remote send
        #: additionally pays a bytes-on-wire transfer + serialization
        #: delay and the byte counters below accumulate.
        self.cost: Optional[WireCostModel] = None
        # Instrumentation
        self.messages_sent = Counter("net.messages_sent")
        self.messages_delivered = Counter("net.messages_delivered")
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
        self._arrivals[node.node_id] = node._inbox.arrive

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
        arrive = self._arrivals.get(dst)
        if arrive is None:
            raise KeyError(f"unknown destination node {dst}")
        env = self.env
        now = env._now
        mtype = msg.mtype
        remote = src != dst
        msg.sent_at = now
        delay = self._delay_rows[src][dst] if remote else self.local_delay
        cost = self.cost
        if cost is not None and remote:
            # the WireCostModel formula, in its one place
            wire = cost.control_size + msg.wire_bytes
            delay += wire / cost.bandwidth + wire * cost.ser_per_byte
            self.control_bytes += cost.control_size
            self.payload_bytes += msg.wire_bytes
        self.messages_sent.value += 1
        per_type = self.per_type
        per_type[mtype] = per_type.get(mtype, 0) + 1
        tracer = self.tracer
        if tracer.enabled and tracer.wants("net.send"):
            tracer.emit(
                now, "net.send", f"msg{msg.msg_id}",
                mtype=mtype.value, src=src, dst=dst, delay=delay,
            )
        if self.batcher is not None and remote:
            return self.batcher.enqueue(msg, delay)
        if self.faults is not None:
            delays = self.faults.on_send(msg, delay)
            if not delays:
                return now + delay  # dropped on the wire
            for i, d in enumerate(delays):
                member = msg if i == 0 else self._clone(msg)
                env.call_later(d, arrive, member)
            return now + delays[0]
        # Environment.call_later's push, inlined: this runs per message
        env._seq += 1
        env._qpush((now + delay, PRIORITY_NORMAL, env._seq, arrive, msg))
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

    def _deliver_riders(self, riders: List[Message]) -> None:
        arrive = self._arrivals[riders[0].dst]
        env = self.env
        # No rider's arrival is the last act of this entry, so none may
        # deliver its reply in place (Signal.deliver): the guard is down.
        inline = env._inline
        env._inline = False
        for msg in riders:
            arrive(msg)
        env._inline = inline

    def __repr__(self) -> str:
        return (
            f"<Network nodes={len(self._nodes)} "
            f"sent={self.messages_sent.value}>"
        )
