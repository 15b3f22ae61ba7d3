"""Structured simulation tracing.

One emit builds one record, and that record is the observability schema
event (:mod:`repro.obs.events`): a flat dict of ``t`` (simulation time),
``cat`` (category), ``sub`` (subject) and the emit site's keyword
details.  The same dict goes to every attached sink and into the
in-memory store; nothing converts it again on its way to a JSONL line,
a Chrome slice or a test assertion, so consumers must not mutate it.

Consumers: debugging (:meth:`Tracer.dump`), tests asserting on protocol
event orderings, the determinism property test (identical seeds must
produce identical traces), and :mod:`repro.obs`, whose *sinks* (anything
with ``accept(record)`` and optionally ``close()``) stream every
accepted record out of the process.  Tracing is off by default and
filtered by category, so the hot path pays a single dict lookup when
disabled.

In-memory retention (``max_records``, at least 1 when given): unbounded
by default; **bounded** (``ring=False``) keeps the first ``max_records``
and drops the tail; **ring** (``ring=True``) keeps the most recent and
evicts the head — the end of a run is usually where debugging looks.
``dropped`` counts the loss either way.  Sinks see every accepted record
regardless, even with ``keep_records=False`` (the streaming-export path).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = ["Tracer"]

_RESERVED = ("t", "cat", "sub")


def _line(record: Dict[str, Any]) -> str:
    kv = " ".join(
        f"{k}={v}" for k, v in sorted(record.items()) if k not in _RESERVED
    )
    return f"[{record['t']:12.6f}] {record['cat']:<12} {record['sub']} {kv}".rstrip()


class Tracer:
    """Category-filtered, optionally bounded trace collector."""

    def __init__(
        self,
        enabled: bool = False,
        categories: Optional[Iterable[str]] = None,
        max_records: Optional[int] = None,
        ring: bool = False,
        keep_records: bool = True,
    ) -> None:
        if max_records is not None and max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.enabled = enabled
        self._categories = set(categories) if categories is not None else None
        self._max = max_records
        self._ring = bool(ring)
        self._keep = bool(keep_records)
        self._records: deque = deque()
        self._sinks: List[Any] = []
        self.dropped = 0

    def wants(self, category: str) -> bool:
        """Cheap guard callers can use to skip building detail tuples."""
        if not self.enabled:
            return False
        return self._categories is None or category in self._categories

    def attach_sink(self, sink: Any) -> Any:
        """Attach a streaming consumer; returns it (for chaining).

        Sinks receive every record that passes the category filter,
        regardless of the in-memory retention mode.
        """
        self._sinks.append(sink)
        return sink

    def emit(self, time: float, category: str, subject: str, **details: Any) -> None:
        if not self.wants(category):
            return
        # ``details`` is a fresh dict per call; it becomes the record.
        # Reserved keys go in last so they win over a same-named detail.
        # Every sink and the store share it: consumers must not mutate it.
        details["t"] = time
        details["cat"] = category
        details["sub"] = subject
        for sink in self._sinks:
            sink.accept(details)
        if not self._keep:
            return
        if self._max is not None and len(self._records) >= self._max:
            self.dropped += 1
            if not self._ring:
                return  # bounded mode: keep the head, drop the tail
            self._records.popleft()  # ring mode: evict the oldest
        self._records.append(details)

    def records(self, category: Optional[str] = None) -> List[Dict[str, Any]]:
        if category is None:
            return list(self._records)
        return [r for r in self._records if r["cat"] == category]

    def close_sinks(self) -> None:
        """Close every attached sink that supports it."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        # A tracer is a sink, not a container: an *empty* tracer must not
        # be falsy, or `tracer or Tracer()` at wiring sites would discard
        # a configured-but-quiet instance.
        return True

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._records)

    def dump(self, limit: Optional[int] = None, tail: Optional[int] = None) -> str:
        """Human-readable multi-line rendering (for debugging sessions).

        One line per record: ``[t] cat sub k=v ...``, details in sorted key
        order.  ``limit`` takes the first N records; ``tail`` (or a
        negative ``limit``) takes the last N — the end of the run, which
        is where debugging sessions almost always want to look.
        """
        if limit is not None and limit < 0:
            if tail is not None:
                raise ValueError("pass either a negative limit or tail, not both")
            tail = -limit
        rows: Iterable[Dict[str, Any]]
        if tail is not None:
            n = len(self._records)
            rows = list(self._records)[max(0, n - tail):]
        elif limit is not None:
            rows = list(self._records)[:limit]
        else:
            rows = self._records
        return "\n".join(_line(r) for r in rows)
