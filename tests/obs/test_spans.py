"""Unit tests for span reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import (
    SpanBuilder,
    SpanList,
    build_spans,
    latency_row,
    phase_durations,
)


def begin(txid, t=0.0, task="task-n0-1", node="n0", attempt=0, depth=0,
          parent=None, profile="bank"):
    e = {"t": t, "cat": "span.begin", "sub": txid, "task": task, "node": node,
         "attempt": attempt, "profile": profile, "depth": depth}
    if parent is not None:
        e["parent"] = parent
    return e


def phase(txid, name, edge, t):
    return {"t": t, "cat": "span.phase", "sub": txid, "phase": name, "edge": edge}


def end(txid, t, outcome="commit", reason=None):
    e = {"t": t, "cat": "span.end", "sub": txid, "task": "task-n0-1",
         "node": "n0", "outcome": outcome}
    if reason is not None:
        e["reason"] = reason
    return e


class TestSpanBuilder:
    def test_simple_commit_span(self):
        spans = build_spans([
            begin("tx1", 0.0),
            phase("tx1", "open", "B", 0.1),
            phase("tx1", "open", "E", 0.3),
            phase("tx1", "commit", "B", 0.4),
            phase("tx1", "commit", "E", 0.9),
            end("tx1", 1.0),
        ])
        assert len(spans) == 1
        s = spans[0]
        assert s.outcome == "commit" and s.duration == pytest.approx(1.0)
        assert s.is_root
        assert s.phase_time("open") == pytest.approx(0.2)
        assert s.phase_time("commit") == pytest.approx(0.5)

    def test_abort_force_closes_open_phases(self):
        spans = build_spans([
            begin("tx1", 0.0),
            phase("tx1", "commit", "B", 0.2),
            phase("tx1", "validate", "B", 0.3),
            end("tx1", 0.5, outcome="abort", reason="commit_validation"),
        ])
        s = spans[0]
        assert s.outcome == "abort" and s.reason == "commit_validation"
        # both phases closed at span end
        assert s.phase_time("commit") == pytest.approx(0.3)
        assert s.phase_time("validate") == pytest.approx(0.2)

    def test_innermost_matching_phase_closes(self):
        spans = build_spans([
            begin("tx1", 0.0),
            phase("tx1", "open", "B", 0.1),
            phase("tx1", "open", "B", 0.2),   # re-entrant (chase hop)
            phase("tx1", "open", "E", 0.3),   # closes the inner one
            phase("tx1", "open", "E", 0.6),
            end("tx1", 1.0),
        ])
        durations = sorted(p.duration for p in spans[0].phases)
        assert durations == [pytest.approx(0.1), pytest.approx(0.5)]

    def test_nested_child_links_parent(self):
        spans = build_spans([
            begin("tx1", 0.0),
            begin("tx1-2", 0.1, depth=1, parent="tx1"),
            end("tx1-2", 0.4),
            end("tx1", 1.0),
        ])
        by_id = {s.txid: s for s in spans}
        assert by_id["tx1-2"].parent == "tx1"
        assert not by_id["tx1-2"].is_root
        assert by_id["tx1"].parent is None

    def test_retry_chain_shares_task(self):
        spans = build_spans([
            begin("tx1", 0.0, attempt=0),
            end("tx1", 0.2, outcome="abort", reason="busy_object"),
            begin("tx2", 0.3, attempt=1),
            end("tx2", 0.9),
        ])
        assert [s.task for s in spans] == ["task-n0-1", "task-n0-1"]
        assert [s.attempt for s in spans] == [0, 1]

    def test_unknown_span_events_ignored(self):
        spans = SpanList()
        builder = SpanBuilder(spans)
        builder.feed(phase("ghost", "open", "B", 0.1))
        builder.feed(end("ghost", 0.5))
        assert spans == []

    def test_open_span_not_reported(self):
        spans = SpanList()
        builder = SpanBuilder(spans)
        builder.feed(begin("tx1", 0.0))
        assert spans == []
        assert "tx1" in builder._open


def test_consumers_see_phases_as_they_close_then_the_span():
    class Log:
        def __init__(self):
            self.calls = []

        def on_phase(self, span, p):
            self.calls.append((p.name, p.start, p.end))

        def on_span(self, span):
            self.calls.append(("span", span.outcome))

    log = Log()
    builder = SpanBuilder(log)
    builder.feed(begin("tx1", 0.0))
    builder.feed(phase("tx1", "open", "B", 0.1))
    builder.feed(phase("tx1", "open", "E", 0.2))
    assert log.calls == [("open", 0.1, 0.2)]  # at close, not at span end
    builder.feed(phase("tx1", "commit", "B", 0.3))
    builder.feed(phase("tx1", "validate", "B", 0.4))
    builder.feed(end("tx1", 0.5, outcome="abort"))
    # force-closed in stack order, then the span itself
    assert log.calls[1:] == [("commit", 0.3, 0.5), ("validate", 0.4, 0.5),
                             ("span", "abort")]


def test_phase_durations_groups():
    spans = build_spans([
        begin("tx1", 0.0),
        phase("tx1", "open", "B", 0.0),
        phase("tx1", "open", "E", 0.1),
        end("tx1", 0.2),
        begin("tx2", 0.3),
        phase("tx2", "open", "B", 0.3),
        phase("tx2", "open", "E", 0.5),
        end("tx2", 0.6),
    ])
    groups = phase_durations(spans)
    assert sorted(groups) == ["open"]
    assert groups["open"] == [pytest.approx(0.1), pytest.approx(0.2)]


@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_latency_row_is_exact(samples):
    """Linear interpolation between closest ranks (numpy's default) and
    an exactly rounded mean: no estimator anywhere."""
    row = latency_row(samples)
    assert row["count"] == len(samples)
    for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        assert row[key] == pytest.approx(np.quantile(samples, q), rel=1e-12, abs=1e-12)
    assert row["mean"] == pytest.approx(np.mean(samples), rel=1e-12, abs=1e-12)
