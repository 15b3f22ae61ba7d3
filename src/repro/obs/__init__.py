"""Observability for the D-STM reproduction (``repro.obs``).

Layered on the simulation tracer's sink interface: when enabled (see
:class:`~repro.core.config.ObsConfig`), the cluster attaches an
:class:`ObsRecorder` that takes every accepted trace record — already
the flat schema event — and streams it to exporters while folding it into
in-memory aggregates (windowed series, and one float per closed span
phase and finished span for the exact latency rows).

Pieces:

* :mod:`repro.obs.events` — the event schema + validators;
* :mod:`repro.obs.sink` — the streaming JSONL exporter;
* :mod:`repro.obs.spans` — the one span fold (recorder, Chrome, report);
* :mod:`repro.obs.series` — per-node / per-object time-series reducer;
* :mod:`repro.obs.chrome` — streaming Chrome ``trace_event`` exporter;
* :mod:`repro.obs.recorder` — the live sink wiring it all together;
* :mod:`repro.obs.report` — the run-report CLI
  (``python -m repro.obs.report run.jsonl``).

DESIGN.md's "Observability" section documents the span model and the
disabled-path cost contract (one category-guard check per emission site).
"""

from repro.obs.chrome import ChromeTraceWriter
from repro.obs.events import (
    OBS_CATEGORIES,
    SPAN_PHASES,
    SchemaError,
    validate_event,
    validate_events,
)
from repro.obs.recorder import ObsRecorder
from repro.obs.series import NodeSeries, ObjectSeries, SeriesTracker
from repro.obs.sink import JsonlSink, dumps_event
from repro.obs.spans import (
    Phase,
    PhaseSamples,
    Span,
    SpanBuilder,
    SpanList,
    build_spans,
    latency_row,
    phase_durations,
)

__all__ = [
    "OBS_CATEGORIES",
    "SPAN_PHASES",
    "ChromeTraceWriter",
    "JsonlSink",
    "NodeSeries",
    "ObjectSeries",
    "ObsRecorder",
    "Phase",
    "PhaseSamples",
    "SchemaError",
    "SeriesTracker",
    "Span",
    "SpanBuilder",
    "SpanList",
    "build_spans",
    "dumps_event",
    "latency_row",
    "phase_durations",
    "validate_event",
    "validate_events",
]
