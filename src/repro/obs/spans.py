"""Fold a span event stream into transaction lifecycle spans.

The emitters (``core.api``, ``dstm.tfa``, ``dstm.proxy``) publish flat
``span.begin`` / ``span.phase`` / ``span.end`` events keyed by txid.
:class:`SpanBuilder` is the one place those edges are paired: it folds
them back into :class:`Span` objects with per-phase intervals, parent
links (nested children) and retry chains (attempts sharing a ``task``
id), and hands each closed phase and each finished span to its
consumers: a :class:`PhaseSamples` (in the run's :class:`LiveFold` and
in the report CLI), and, in the report alone, a :class:`SpanList` and
the Chrome exporter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.monitor import percentile

__all__ = [
    "LiveFold",
    "Phase",
    "PhaseSamples",
    "Span",
    "SpanBuilder",
    "SpanList",
    "build_spans",
    "latency_row",
    "phase_durations",
]


@dataclass
class Phase:
    """One closed phase interval inside a span."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Span:
    """One transaction attempt, root or nested."""

    txid: str
    task: str
    node: str
    attempt: int
    profile: str
    depth: int
    start: float
    parent: Optional[str] = None
    end: Optional[float] = None
    outcome: Optional[str] = None
    reason: Optional[str] = None
    phases: List[Phase] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def is_root(self) -> bool:
        return self.depth == 0

    def phase_time(self, name: str) -> float:
        return sum(p.duration for p in self.phases if p.name == name)


class SpanBuilder:
    """Incremental span reconstruction; feed events in time order.

    Each consumer gets ``on_phase(span, phase)`` the moment a phase
    closes and ``on_span(span)`` when its span ends.  Aborts can leave
    phases open: ``span.end`` closes whatever remains, innermost last,
    before the span itself is handed on.
    """

    def __init__(self, *consumers: Any) -> None:
        self._consumers = consumers
        self._open: Dict[str, Span] = {}
        # per-txid stack of (phase-name, begin-time)
        self._stacks: Dict[str, List[Tuple[str, float]]] = {}

    def _close(self, span: Span, name: str, begun: float, end: float) -> None:
        phase = Phase(name, begun, end)
        span.phases.append(phase)
        for consumer in self._consumers:
            consumer.on_phase(span, phase)

    def feed(self, event: Dict[str, Any]) -> None:
        cat = event.get("cat")
        if cat == "span.begin":
            txid = event["sub"]
            self._open[txid] = Span(
                txid=txid,
                task=event["task"],
                node=event["node"],
                attempt=event["attempt"],
                profile=event["profile"],
                depth=event["depth"],
                start=event["t"],
                parent=event.get("parent"),
            )
            self._stacks[txid] = []
        elif cat == "span.phase":
            stack = self._stacks.get(event["sub"])
            span = self._open.get(event["sub"])
            if stack is None or span is None:
                return  # phase for a span whose begin predates the log
            if event["edge"] == "B":
                stack.append((event["phase"], event["t"]))
            else:
                # close the innermost matching phase (phases nest)
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i][0] == event["phase"]:
                        name, begun = stack.pop(i)
                        self._close(span, name, begun, event["t"])
                        break
        elif cat == "span.end":
            txid = event["sub"]
            span = self._open.pop(txid, None)
            if span is None:
                return
            span.end = event["t"]
            span.outcome = event["outcome"]
            span.reason = event.get("reason")
            for name, begun in self._stacks.pop(txid, []):
                self._close(span, name, begun, span.end)
            span.phases.sort(key=lambda p: (p.start, p.name))
            for consumer in self._consumers:
                consumer.on_span(span)


class SpanList(List[Span]):
    """Consumer that keeps every finished span, in end order (offline
    use: the report's anatomy and wasted-work passes, tests)."""

    def on_phase(self, span: Span, phase: Phase) -> None:
        pass

    def on_span(self, span: Span) -> None:
        self.append(span)


def build_spans(events: Iterable[Dict[str, Any]]) -> List[Span]:
    spans = SpanList()
    builder = SpanBuilder(spans)
    for event in events:
        builder.feed(event)
    return spans


def phase_durations(spans: Iterable[Span]) -> Dict[str, List[float]]:
    """All per-phase durations, grouped by phase name."""
    out: Dict[str, List[float]] = {}
    for span in spans:
        for phase in span.phases:
            out.setdefault(phase.name, []).append(phase.duration)
    return out


class PhaseSamples:
    """Consumer that keeps one float per closed phase, by phase name, and
    one per finished span, under ``span.commit`` / ``span.abort``."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    def on_phase(self, span: Span, phase: Phase) -> None:
        self.samples.setdefault(phase.name, []).append(phase.end - phase.start)

    def on_span(self, span: Span) -> None:
        self.samples.setdefault(f"span.{span.outcome}", []).append(
            span.end - span.start  # type: ignore[operator]
        )

    def rows(self) -> Dict[str, Dict[str, float]]:
        """Per-name :func:`latency_row`: phases by name, then outcomes."""
        names = sorted(self.samples, key=lambda n: (n.startswith("span."), n))
        return {name: latency_row(self.samples[name]) for name in names}


class LiveFold:
    """Tracer sink: the one fold an obs-enabled run keeps in process.

    It counts events and keeps the exact phase rows; every other table
    comes from the run's JSONL through :mod:`repro.obs.report`, whose
    ``phases`` equal :meth:`summary`'s.
    """

    def __init__(self) -> None:
        self.events = 0
        self.samples = PhaseSamples()
        self._spans = SpanBuilder(self.samples)

    def accept(self, event: Dict[str, Any]) -> None:
        self.events += 1
        self._spans.feed(event)

    def summary(self) -> Dict[str, Any]:
        return {"events": self.events, "phases": self.samples.rows()}


def latency_row(samples: List[float]) -> Dict[str, float]:
    """Exact count / mean / p50 / p95 / p99 of non-empty ``samples``.

    Percentiles interpolate linearly between the closest ranks of the
    sorted samples; the mean is ``math.fsum`` over them, so the row does
    not depend on the order the samples arrived in.
    """
    data = sorted(samples)
    n = len(data)
    return {
        "count": n, "mean": math.fsum(data) / n,
        "p50": percentile(data, 50.0), "p95": percentile(data, 95.0),
        "p99": percentile(data, 99.0),
    }
