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

Installed onto a :class:`~repro.net.network.Network` like the fault
injector; ``window == 0`` (the default config) never constructs one, so
the legacy per-message path — and byte-identical same-seed runs — is the
default.  Fault injection composes: each batch member individually
consults the injector at flush time, so drops/duplicates/extra delays
keep their per-message semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.message import Message
from repro.sim import Environment, Tracer

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
        if window <= 0:
            raise ValueError(f"batch window must be > 0, got {window}")
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
        if buffer is None:
            self._buffers[key] = [(msg, delay)]
            self.env.call_later(self.window, self._flush, key)
        else:
            buffer.append((msg, delay))
        # Every member leaves when the window closes and rides one link
        # traversal (static per-link delay, so one time fits all).
        return self.env._now + self.window + delay

    def _flush(self, key: Tuple[int, int]) -> None:
        batch = self._buffers.pop(key)
        size = len(batch)
        self.batches += 1
        self.batched_messages += size
        if size > self.max_batch:
            self.max_batch = size
        tracer = self.tracer
        if tracer.enabled and tracer.wants("rpc.batch"):
            src, dst = key
            tracer.emit(
                self.env.now, "rpc.batch", f"{src}->{dst}",
                src=src, dst=dst, size=size,
            )
        self.network.deliver_batch(batch)

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
