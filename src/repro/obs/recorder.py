"""The in-process observability recorder.

One :class:`ObsRecorder` attaches to the cluster tracer as a sink and,
per accepted record (already the flat schema event dict):

* streams it to the configured exporters (JSONL, Chrome trace);
* folds it into the :class:`~repro.obs.series.SeriesTracker`;
* feeds it to a :class:`~repro.obs.spans.SpanBuilder`, whose closed
  phases and finished spans become Chrome slices and one float each in
  a :class:`~repro.obs.spans.PhaseSamples`.

The summary's ``phases`` rows are therefore exact, and equal to what the
offline report CLI (:mod:`repro.obs.report`) computes from the same
run's JSONL.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.chrome import ChromeTraceWriter
from repro.obs.series import SeriesTracker
from repro.obs.sink import JsonlSink
from repro.obs.spans import PhaseSamples, SpanBuilder

__all__ = ["ObsRecorder"]


class ObsRecorder:
    """Tracer sink: export + reduce every observability event."""

    def __init__(
        self,
        jsonl_path: Optional[str] = None,
        chrome_path: Optional[str] = None,
    ) -> None:
        self.series = SeriesTracker()
        self.jsonl: Optional[JsonlSink] = JsonlSink(jsonl_path) if jsonl_path else None
        self.chrome: Optional[ChromeTraceWriter] = (
            ChromeTraceWriter(chrome_path) if chrome_path else None
        )
        #: per-phase latency samples; "span.commit"/"span.abort" hold
        #: whole-attempt durations by outcome.
        self.samples = PhaseSamples()
        consumers = [self.samples] if self.chrome is None else [self.samples, self.chrome]
        self.spans = SpanBuilder(*consumers)
        self.events = 0

    # -- sink interface --------------------------------------------------

    def accept(self, event: Dict[str, Any]) -> None:
        self.events += 1
        if self.jsonl is not None:
            self.jsonl.accept(event)
        if self.chrome is not None:
            self.chrome.feed(event)
        self.series.feed(event)
        self.spans.feed(event)

    def close(self) -> None:
        if self.jsonl is not None:
            self.jsonl.close()
        if self.chrome is not None:
            self.chrome.close()

    # -- summaries -------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Live run summary: series snapshot + exact phase latencies."""
        out = self.series.snapshot()
        out["phases"] = self.samples.rows()
        return out
