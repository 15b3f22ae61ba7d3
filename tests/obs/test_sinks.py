"""Unit tests for the streaming export sinks."""

import io
import json

from repro.obs.sink import JsonlSink, dumps_event
from repro.sim.trace import Tracer


def rec(t=1.0, cat="obs.queue", sub="o1", **details):
    return {"t": t, "cat": cat, "sub": sub, **details}


class TestDumpsEvent:
    def test_canonical(self):
        s = dumps_event({"b": 1, "a": 2})
        assert s == '{"a":2,"b":1}'  # sorted keys, compact separators


class TestJsonlSink:
    def test_streams_lines(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.accept(rec(node="n0", len=2))
        sink.accept(rec(t=2.0, len=0, node="n0"))
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2 and sink.count == 2
        first = json.loads(lines[0])
        assert first == {"t": 1.0, "cat": "obs.queue", "sub": "o1",
                         "node": "n0", "len": 2}

    def test_file_path_roundtrip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(str(path))
        sink.accept(rec())
        sink.close()
        assert json.loads(path.read_text())["cat"] == "obs.queue"

    def test_close_keeps_borrowed_file_open(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.close()
        assert not buf.closed

    def test_as_tracer_sink(self):
        buf = io.StringIO()
        tr = Tracer(enabled=True, keep_records=False)
        tr.attach_sink(JsonlSink(buf))
        tr.emit(0.5, "dstm.conflict", "o3", winner="holder")
        event = json.loads(buf.getvalue())
        assert event["sub"] == "o3" and event["winner"] == "holder"
        assert len(tr) == 0  # streaming only; nothing retained

