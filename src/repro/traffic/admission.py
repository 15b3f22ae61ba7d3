"""Bounded per-node admission queues.

Open-loop arrivals outpace service capacity by design, so every node
fronts its dispatchers with a bounded queue.  When the queue is full the
arriving transaction is shed (tail drop: queued work is never wasted).

The queue keeps a :class:`~repro.sim.monitor.TimeWeighted` depth gauge —
the signal the stability detector integrates — plus offered / admitted /
shed counters.  ``close()`` ends the measurement window: blocked
dispatchers wake with ``None`` and remaining items are counted as
backlog, never served (the backlog *is* the instability evidence).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim import Environment
from repro.sim.events import Event
from repro.sim.monitor import TimeWeighted

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """One node's bounded arrival queue."""

    __slots__ = (
        "env", "node", "capacity", "tracer",
        "items", "depth", "offered", "admitted", "shed",
        "_waiters", "_closed",
    )

    def __init__(
        self,
        env: Environment,
        node: int,
        capacity: int,
        tracer: Any = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.node = node
        self.capacity = capacity
        self.tracer = tracer
        self.items: Deque[Any] = deque()
        self.depth = TimeWeighted(f"n{node}.admission", start_time=env.now)
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self._waiters: Deque[Event] = deque()
        self._closed = False

    # ------------------------------------------------------------------

    def _gauge(self) -> None:
        self.depth.update(self.env.now, len(self.items))
        if self.tracer is not None and self.tracer.wants("traffic.queue"):
            self.tracer.emit(
                self.env.now, "traffic.queue", f"n{self.node}",
                node=f"n{self.node}", len=len(self.items),
            )

    def offer(self, item: Any) -> bool:
        """Admit ``item``, or shed it when closed or full; returns True
        when admitted."""
        self.offered += 1
        if self._closed or len(self.items) >= self.capacity:
            self.shed += 1
            return False
        self.items.append(item)
        self.admitted += 1
        self._gauge()
        if self._waiters:
            self._waiters.popleft().succeed(None)
        return True

    def get(self) -> Generator[Any, Any, Optional[Any]]:
        """Next admitted item (``yield from``); None once closed."""
        while True:
            if self._closed:
                return None
            if self.items:
                item = self.items.popleft()
                self._gauge()
                return item
            waiter = self.env.event()
            self._waiters.append(waiter)
            yield waiter

    def close(self) -> int:
        """End the window; wake blocked consumers.  Returns the backlog."""
        if not self._closed:
            self._closed = True
            while self._waiters:
                self._waiters.popleft().succeed(None)
        return len(self.items)

    @property
    def backlog(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return (
            f"<AdmissionQueue n{self.node} depth={len(self.items)}/"
            f"{self.capacity} shed={self.shed}>"
        )
