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
with ``accept(record)`` and optionally ``close()``) see every accepted
record.  Tracing is off by default and filtered by category, so the hot
path pays a single dict lookup when disabled.

The tracer keeps every accepted record in memory unless
``keep_records=False`` (the obs path: its sinks see the records, the
tracer holds none).
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = ["Tracer"]

_RESERVED = ("t", "cat", "sub")


def _line(record: Dict[str, Any]) -> str:
    kv = " ".join(
        f"{k}={v}" for k, v in sorted(record.items()) if k not in _RESERVED
    )
    return f"[{record['t']:12.6f}] {record['cat']:<12} {record['sub']} {kv}".rstrip()


class Tracer:
    """Category-filtered trace collector."""

    def __init__(
        self,
        enabled: bool = False,
        categories: Optional[Iterable[str]] = None,
        keep_records: bool = True,
    ) -> None:
        self.enabled = enabled
        self._categories = set(categories) if categories is not None else None
        self._keep = bool(keep_records)
        self._records: List[Dict[str, Any]] = []
        self._sinks: List[Any] = []

    def wants(self, category: str) -> bool:
        """Cheap guard callers can use to skip building detail tuples."""
        if not self.enabled:
            return False
        return self._categories is None or category in self._categories

    def attach_sink(self, sink: Any) -> Any:
        """Attach a streaming consumer; returns it (for chaining).

        Sinks receive every record that passes the category filter,
        whether or not the tracer keeps it.
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
        if self._keep:
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

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable multi-line rendering (for debugging sessions).

        One line per record: ``[t] cat sub k=v ...``, details in sorted key
        order; ``limit`` takes the first N records.
        """
        return "\n".join(_line(r) for r in islice(self._records, limit))
