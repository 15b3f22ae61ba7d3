"""Piggyback batching: co-deliverable messages share one simulated send.

When a node sends several messages to the same destination within a short
coalescing window — a commit's registration fan-out, a read multicast, a
heartbeat burst — a real transport (TCP with Nagle, or an RPC runtime's
write coalescing) puts them on the wire together.  The batcher models
that: the first message to a ``(src, dst)`` link opens a window of
``window`` simulated seconds; everything enqueued to that link before it
closes is flushed as **one batch** that traverses the link once and is
delivered member-by-member, in enqueue order, at the same instant.

Why it matters for the 10-80 node axis: simulation cost scales with the
event count, and per-message delivery events dominate large runs.  A
k-message batch costs one flush call plus one delivery call instead of
k arrival calls, so the host-side events/sec of big-cluster runs improves
alongside the modelled latency semantics.

A batch costs three Python frames on top of the plain route
(``tests/net/test_hop_budget.py``): :meth:`PiggybackBatcher.enqueue`,
:meth:`PiggybackBatcher._flush` and the riders' ``Network._deliver_riders``.
Both kernel entries are pushed inline, as ``Network.send`` pushes its
own, which is why the window must be finite and positive: nothing checks
it per push.

Installed onto a :class:`~repro.net.network.Network` like the fault
plan; ``window == 0`` (the default config) never constructs one, so
the legacy per-message path — and byte-identical same-seed runs — is the
default.  It never meets fault injection: ``ClusterConfig`` refuses a
batching window under ``faults.enabled``, so every member of a flushed
batch rides.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.message import Message
from repro.sim import PRIORITY_NORMAL, Environment, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network

__all__ = ["PiggybackBatcher"]


class PiggybackBatcher:
    """Per-link send coalescing with a fixed window."""

    def __init__(
        self,
        env: Environment,
        window: float,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not 0 < window < math.inf:  # false for NaN too
            raise ValueError(f"batch window must be finite and > 0, got {window!r}")
        self.env = env
        self.window = float(window)
        self.tracer = tracer or Tracer()
        self.network: Optional["Network"] = None
        #: open coalescing windows: (src, dst) -> [(message, link delay)]
        self._buffers: Dict[Tuple[int, int], List[Tuple[Message, float]]] = {}
        #: stats (host-side; feed the ``rpc.batch`` obs series)
        self.batches = 0
        self.batched_messages = 0
        self.max_batch = 0

    def install(self, network: "Network") -> "PiggybackBatcher":
        network.batcher = self
        self.network = network
        return self

    # -- send path (called by Network.send for remote messages) ------------

    def enqueue(self, msg: Message, delay: float) -> float:
        """Buffer ``msg`` for its link; returns the scheduled delivery time."""
        key = (msg.src, msg.dst)
        buffer = self._buffers.get(key)
        env = self.env
        if buffer is None:
            self._buffers[key] = [(msg, delay)]
            # Environment.call_later's push, inlined (the window is valid)
            env._seq += 1
            env._qpush(
                (env._now + self.window, PRIORITY_NORMAL, env._seq, self._flush, key)
            )
        else:
            buffer.append((msg, delay))
        # Every member leaves when the window closes and rides one link
        # traversal (static per-link delay, so one time fits all).
        return env._now + self.window + delay

    def _flush(self, key: Tuple[int, int]) -> None:
        batch = self._buffers.pop(key)
        size = len(batch)
        self.batches += 1
        self.batched_messages += size
        if size > self.max_batch:
            self.max_batch = size
        env = self.env
        tracer = self.tracer
        if tracer.enabled and tracer.wants("rpc.batch"):
            src, dst = key
            tracer.emit(
                env._now, "rpc.batch", f"{src}->{dst}",
                src=src, dst=dst, size=size,
            )
        network = self.network
        # every member rides (the config refuses a batcher under faults);
        # a loop, since a comprehension is a frame
        riders: List[Message] = []
        for msg, _ in batch:
            riders.append(msg)
        # One link traversal at the first member's delay, pushed inline
        # with the entry call_later would make
        env._seq += 1
        env._qpush((
            env._now + batch[0][1], PRIORITY_NORMAL, env._seq,
            network._deliver_riders, riders,
        ))

    def mean_batch(self) -> float:
        return self.batched_messages / self.batches if self.batches else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "batches": self.batches,
            "batched_messages": self.batched_messages,
            "mean_batch": self.mean_batch(),
            "max_batch": self.max_batch,
        }

    def __repr__(self) -> str:
        return (
            f"<PiggybackBatcher window={self.window} batches={self.batches} "
            f"messages={self.batched_messages}>"
        )
