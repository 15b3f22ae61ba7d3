"""Observability for the D-STM reproduction (``repro.obs``).

Layered on the simulation tracer's sink interface: when enabled (see
:class:`~repro.core.config.ObsConfig`), the cluster attaches two sinks
to the tracer, whose records are already the flat schema events.  A
:class:`JsonlSink` writes the one stream (given a path), and a
:class:`LiveFold` keeps the event count and the exact span-phase rows
the run result carries.  Every other table, and the Chrome trace, is
computed from the JSONL by the report CLI.

Pieces:

* :mod:`repro.obs.events` — the event schema + validators;
* :mod:`repro.obs.sink` — the streaming JSONL exporter;
* :mod:`repro.obs.spans` — the one span fold (live fold, report, Chrome);
* :mod:`repro.obs.series` — the report's per-node / per-object reducer;
* :mod:`repro.obs.chrome` — the report's Chrome ``trace_event`` exporter;
* :mod:`repro.obs.report` — the run-report CLI
  (``python -m repro.obs.report run.jsonl [--chrome out.json]``).

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
from repro.obs.series import NodeSeries, ObjectSeries, SeriesTracker
from repro.obs.sink import JsonlSink, dumps_event
from repro.obs.spans import (
    LiveFold,
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
    "LiveFold",
    "NodeSeries",
    "ObjectSeries",
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
