"""Streaming Chrome ``trace_event`` exporter (Perfetto / chrome://tracing).

Layout: one *process* per simulated node (pid = node id, named via ``M``
metadata events) and one *thread* per logical task (retry chain), so a
transaction's attempts — and its nested children, which share the task —
line up on one track.  Spans and phases are emitted as complete (``X``)
duration events when they close — the writer is a
:class:`~repro.obs.spans.SpanBuilder` consumer and pairs no edges
itself; scheduler decisions and faults are instants (``i``); queue
depths are counters (``C``).

Timestamps are microseconds (``t * 1e6``): the standard trace_event unit.

``python -m repro.obs.report run.jsonl --chrome OUT`` drives it.  It
streams: events are serialised as they complete, and it keeps only the
pid / tid track maps.  Serialisation is canonical
(sorted keys, compact separators), so same-seed runs export
byte-identical traces.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Tuple

from repro.obs.spans import Phase, Span

__all__ = ["ChromeTraceWriter"]

_OTHER_PID = 999  # process for events with no parseable node


def _canon(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ChromeTraceWriter:
    """Incremental trace_event JSON writer."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: IO[str] = open(path, "w", encoding="utf-8")
        self._file.write('{"displayTimeUnit":"ms","traceEvents":[')
        self._first = True
        #: pids we have announced with a process_name metadata event
        self._pids: set = set()
        #: (pid, task) -> tid, allocated in first-seen order (deterministic)
        self._tids: Dict[Tuple[int, str], int] = {}
        self._next_tid: Dict[int, int] = {}
        self.count = 0

    # -- low-level emission ----------------------------------------------

    def _write(self, obj: Dict[str, Any]) -> None:
        if not self._first:
            self._file.write(",")
        self._first = False
        self._file.write(_canon(obj))
        self.count += 1

    def _pid(self, node: Any) -> int:
        if isinstance(node, int):
            pid = node
        elif isinstance(node, str) and node.startswith("n") and node[1:].isdigit():
            pid = int(node[1:])
        else:
            pid = _OTHER_PID
        if pid not in self._pids:
            self._pids.add(pid)
            name = f"node {pid}" if pid != _OTHER_PID else "other"
            self._write(
                {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                 "args": {"name": name}}
            )
        return pid

    def _tid(self, pid: int, task: str) -> int:
        key = (pid, task)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._next_tid.get(pid, 1)
            self._next_tid[pid] = tid + 1
            self._tids[key] = tid
            self._write(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                 "args": {"name": task}}
            )
        return tid

    # -- event stream ----------------------------------------------------

    def feed(self, event: Dict[str, Any]) -> None:
        """Instants, counters and track metadata; span and phase slices
        come from :meth:`on_phase` / :meth:`on_span`, which a
        :class:`~repro.obs.spans.SpanBuilder` fed the same events calls."""
        cat = event["cat"]
        t = event["t"]
        if cat == "span.begin":
            self._tid(self._pid(event["node"]), event["task"])
        elif cat == "sched.decision":
            pid = self._pid(event["node"])
            self._write(
                {
                    "ph": "i", "cat": "sched", "s": "p",
                    "name": f"sched:{event['action']}",
                    "pid": pid, "tid": 0, "ts": t * 1e6,
                    "args": {
                        "oid": event["sub"], "cause": event["cause"],
                        "cl": event.get("cl", 0),
                        "threshold": event.get("threshold", 0),
                    },
                }
            )
        elif cat == "obs.queue":
            pid = self._pid(event["node"])
            self._write(
                {
                    "ph": "C", "name": f"queue:{event['sub']}",
                    "pid": pid, "tid": 0, "ts": t * 1e6,
                    "args": {"len": event["len"]},
                }
            )
        elif cat.startswith("fault."):
            node = event.get("node", event.get("dst", event.get("src", event["sub"])))
            pid = self._pid(node)
            self._write(
                {
                    "ph": "i", "cat": "fault", "s": "g", "name": cat,
                    "pid": pid, "tid": 0, "ts": t * 1e6,
                    "args": {"sub": event["sub"]},
                }
            )

    def on_phase(self, span: Span, phase: Phase) -> None:
        pid = self._pid(span.node)
        self._write(
            {
                "ph": "X", "cat": "phase", "name": phase.name,
                "pid": pid, "tid": self._tid(pid, span.task),
                "ts": phase.start * 1e6, "dur": (phase.end - phase.start) * 1e6,
            }
        )

    def on_span(self, span: Span) -> None:
        args = {
            "txid": span.txid, "attempt": span.attempt,
            "outcome": span.outcome, "depth": span.depth,
        }
        if span.reason:
            args["reason"] = span.reason
        pid = self._pid(span.node)
        self._write(
            {
                "ph": "X", "cat": "span", "name": span.profile,
                "pid": pid, "tid": self._tid(pid, span.task),
                "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,  # type: ignore[operator]
                "args": args,
            }
        )

    def close(self) -> None:
        if not self._file.closed:
            self._file.write("]}")
            self._file.close()
