"""Unit tests for the observability event schema."""

import pytest

from repro.obs.events import (
    OBS_CATEGORIES,
    SPAN_PHASES,
    SchemaError,
    validate_event,
    validate_events,
)
from repro.sim.trace import Tracer


def ev(**kw):
    base = {"t": 1.0, "cat": "dstm.grant", "sub": "obj1"}
    base.update(kw)
    return base


class TestEmittedRecord:
    def test_flattens_details(self):
        tracer = Tracer(enabled=True)
        tracer.emit(2.5, "span.phase", "tx1", edge="B", phase="open")
        (event,) = tracer.records()
        assert event == {
            "t": 2.5, "cat": "span.phase", "sub": "tx1",
            "edge": "B", "phase": "open",
        }
        validate_event(event)

    def test_reserved_keys_win(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1.0, "c", "s", t=99.0, cat="x", sub="y")
        assert tracer.records() == [{"t": 1.0, "cat": "c", "sub": "s"}]


class TestValidateEvent:
    def test_minimal_valid(self):
        validate_event(ev())

    def test_not_a_dict(self):
        with pytest.raises(SchemaError):
            validate_event([1, 2])

    @pytest.mark.parametrize("missing", ["t", "cat", "sub"])
    def test_missing_base_key(self, missing):
        e = ev()
        del e[missing]
        with pytest.raises(SchemaError):
            validate_event(e)

    def test_negative_time(self):
        with pytest.raises(SchemaError):
            validate_event(ev(t=-1.0))

    def test_non_scalar_detail(self):
        with pytest.raises(SchemaError):
            validate_event(ev(queue=[1, 2]))

    def test_span_begin_requires_identity(self):
        validate_event(ev(cat="span.begin", sub="tx1", task="task-n0-1",
                          node="n0", attempt=0, profile="bank", depth=0))
        with pytest.raises(SchemaError):
            validate_event(ev(cat="span.begin", sub="tx1", node="n0"))

    def test_span_end_outcome_vocabulary(self):
        good = ev(cat="span.end", sub="tx1", task="t", node="n0", outcome="commit")
        validate_event(good)
        with pytest.raises(SchemaError):
            validate_event({**good, "outcome": "meh"})

    def test_span_phase_vocabulary(self):
        for phase in SPAN_PHASES:
            validate_event(ev(cat="span.phase", sub="tx1", phase=phase, edge="B"))
        with pytest.raises(SchemaError):
            validate_event(ev(cat="span.phase", sub="tx1", phase="open", edge="X"))
        with pytest.raises(SchemaError):
            validate_event(ev(cat="span.phase", sub="tx1", phase="nope", edge="B"))

    def test_sched_decision_action_vocabulary(self):
        good = ev(cat="sched.decision", sub="o1", node="n0",
                  action="enqueue", cause="enqueue")
        validate_event(good)
        with pytest.raises(SchemaError):
            validate_event({**good, "action": "punt"})

    def test_rpc_done_required_keys(self):
        validate_event(ev(cat="rpc.done", sub="retrieve_request",
                          node="n0", dst=3, ok=True, retries=0))
        with pytest.raises(SchemaError):
            validate_event(ev(cat="rpc.done", sub="r", node="n0", dst=3))


class TestValidateEvents:
    def test_counts_and_orders(self):
        events = [ev(t=0.0), ev(t=1.0), ev(t=1.0)]
        assert validate_events(events) == 3

    def test_out_of_order_rejected(self):
        with pytest.raises(SchemaError):
            validate_events([ev(t=2.0), ev(t=1.0)])


def test_obs_categories_cover_span_model():
    for cat in ("span.begin", "span.end", "span.phase", "sched.decision",
                "rpc.issue", "rpc.done", "obs.queue", "dir.owner"):
        assert cat in OBS_CATEGORIES
