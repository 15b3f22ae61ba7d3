"""Unit tests for the tracer."""

import pytest

from repro.sim import Tracer


class TestTracer:
    def test_disabled_by_default(self):
        tr = Tracer()
        tr.emit(1.0, "cat", "subj", a=1)
        assert len(tr) == 0

    def test_enabled_records(self):
        tr = Tracer(enabled=True)
        tr.emit(1.0, "cat", "subj", a=1)
        assert len(tr) == 1
        assert tr.records() == [{"t": 1.0, "cat": "cat", "sub": "subj", "a": 1}]

    def test_category_filter(self):
        tr = Tracer(enabled=True, categories={"keep"})
        tr.emit(0.0, "keep", "x")
        tr.emit(0.0, "drop", "y")
        assert [r["cat"] for r in tr] == ["keep"]
        assert tr.wants("keep") and not tr.wants("drop")

    def test_records_by_category(self):
        tr = Tracer(enabled=True)
        tr.emit(0.0, "a", "1")
        tr.emit(0.0, "b", "2")
        tr.emit(0.0, "a", "3")
        assert [r["sub"] for r in tr.records("a")] == ["1", "3"]

    def test_dump_and_str(self):
        tr = Tracer(enabled=True)
        tr.emit(1.5, "commit", "tx1", node=3, mode="a")
        tr.emit(2.0, "dstm.conflict", "o1")
        assert tr.dump().splitlines() == [
            "[    1.500000] commit       tx1 mode=a node=3",
            "[    2.000000] dstm.conflict o1",
        ]
        assert tr.dump(limit=0) == ""
        assert tr.dump(limit=1) == "[    1.500000] commit       tx1 mode=a node=3"
        with pytest.raises(ValueError):
            tr.dump(limit=-1)  # a negative limit is refused, not a tail

    def test_sink_sees_all_despite_bounds(self):
        seen = []

        class Sink:
            def accept(self, record):
                seen.append(record["sub"])

        tr = Tracer(enabled=True, keep_records=False)
        tr.attach_sink(Sink())
        for i in range(4):
            tr.emit(float(i), "c", f"s{i}")
        assert seen == ["s0", "s1", "s2", "s3"]
        assert len(tr) == 0  # keep_records=False: nothing retained

    def test_close_sinks(self):
        closed = []

        class Sink:
            def accept(self, record):
                pass

            def close(self):
                closed.append(True)

        tr = Tracer(enabled=True)
        tr.attach_sink(Sink())
        tr.close_sinks()
        assert closed == [True]

    def test_sinks_and_store_share_one_record(self):
        seen = []

        class Sink:
            def accept(self, record):
                seen.append(record)

        tr = Tracer(enabled=True)
        tr.attach_sink(Sink())
        tr.emit(0.5, "c", "s", a=1)
        assert seen[0] is tr.records()[0]

    def test_tracer_always_truthy(self):
        assert bool(Tracer()) is True
