"""Unit tests for the time-series tracker."""

import pytest

from repro.obs.series import FAULT_TIMELINE_CAP, SeriesTracker


def span_end(t, node="n0", outcome="commit", depth=0):
    return {"t": t, "cat": "span.end", "sub": f"tx{t}", "task": "task",
            "node": node, "outcome": outcome, "depth": depth}


class TestNodeSeries:
    def test_windowed_commit_buckets(self):
        tr = SeriesTracker(window=1.0)
        for t in (0.1, 0.2, 1.5, 2.5):
            tr.feed(span_end(t))
        tr.feed(span_end(2.6, outcome="abort"))
        rows = tr.node_rows()
        assert len(rows) == 1
        r = rows[0]
        assert r["commits"] == 4 and r["aborts"] == 1
        assert r["abort_ratio"] == pytest.approx(0.2)
        assert r["peak_window_tps"] == pytest.approx(2.0)  # two commits in [0,1)

    def test_nested_span_ends_not_counted(self):
        tr = SeriesTracker()
        tr.feed(span_end(0.1, depth=1))
        assert tr.node_rows() == []

    def test_rpc_inflight_and_unreach(self):
        tr = SeriesTracker()
        tr.feed({"t": 0.0, "cat": "rpc.issue", "sub": "retrieve_request",
                 "node": "n0", "dst": 1})
        tr.feed({"t": 1.0, "cat": "rpc.done", "sub": "retrieve_request",
                 "node": "n0", "dst": 1, "ok": True, "retries": 0})
        tr.feed(span_end(2.0))  # extend t_max
        rows = {r["node"]: r for r in tr.node_rows()}
        assert rows["n0"]["rpc_issued"] == 1
        # in flight for 1s of a 2s run
        assert rows["n0"]["mean_inflight"] == pytest.approx(0.5)
        assert rows["n1"]["unreach"] == 0.0

    def test_failed_rpc_raises_dst_unreachability(self):
        tr = SeriesTracker()
        tr.feed({"t": 0.0, "cat": "rpc.issue", "sub": "r", "node": "n0", "dst": 2})
        tr.feed({"t": 0.5, "cat": "rpc.done", "sub": "r", "node": "n0",
                 "dst": 2, "ok": False, "retries": 5})
        rows = {r["node"]: r for r in tr.node_rows()}
        assert rows["n0"]["rpc_failed"] == 1
        assert rows["n2"]["unreach"] > 0.0

    def test_crash_and_restart_move_ewma(self):
        tr = SeriesTracker()
        tr.feed({"t": 1.0, "cat": "fault.crash", "sub": "n3", "until": 2.0})
        up = {r["node"]: r for r in tr.node_rows()}["n3"]["unreach"]
        assert up > 0.0
        for t in (2.0, 2.1, 2.2, 2.3):
            tr.feed({"t": t, "cat": "fault.restart", "sub": "n3", "since": 1.0})
        down = {r["node"]: r for r in tr.node_rows()}["n3"]["unreach"]
        assert down < up

    def test_node_rows_sorted_numerically(self):
        tr = SeriesTracker()
        for node in ("n10", "n2", "n1"):
            tr.feed(span_end(0.1, node=node))
        assert [r["node"] for r in tr.node_rows()] == ["n1", "n2", "n10"]


class TestObjectSeries:
    def test_queue_gauge_and_conflicts(self):
        tr = SeriesTracker()
        tr.feed({"t": 0.0, "cat": "obs.queue", "sub": "o1", "node": "n0", "len": 2})
        tr.feed({"t": 1.0, "cat": "obs.queue", "sub": "o1", "node": "n0", "len": 0})
        tr.feed({"t": 1.0, "cat": "dstm.conflict", "sub": "o1", "winner": "holder"})
        tr.feed({"t": 1.0, "cat": "dir.owner", "sub": "o1", "node": "n2",
                 "owner": 3, "prev": 1})
        rows = tr.object_rows()
        assert len(rows) == 1
        r = rows[0]
        assert r["conflicts"] == 1 and r["migrations"] == 1
        assert r["max_queue"] == 2
        assert r["mean_queue"] == pytest.approx(2.0)  # depth 2 over [0,1)

    def test_object_rows_ranked_by_conflicts(self):
        tr = SeriesTracker()
        for _ in range(3):
            tr.feed({"t": 0.1, "cat": "dstm.conflict", "sub": "hot"})
        tr.feed({"t": 0.1, "cat": "dstm.conflict", "sub": "cold"})
        assert [r["oid"] for r in tr.object_rows(top=2)] == ["hot", "cold"]


class TestDecisionsAndFaults:
    def test_decision_histogram(self):
        tr = SeriesTracker()
        for cause in ("short_exec", "short_exec", "high_cl"):
            tr.feed({"t": 0.1, "cat": "sched.decision", "sub": "o1",
                     "node": "n0", "action": "abort", "cause": cause})
        tr.feed({"t": 0.2, "cat": "sched.decision", "sub": "o1",
                 "node": "n0", "action": "enqueue", "cause": "enqueue"})
        rows = {(r["action"], r["cause"]): r["count"] for r in tr.decision_rows()}
        assert rows[("abort", "short_exec")] == 2
        assert rows[("abort", "high_cl")] == 1
        assert rows[("enqueue", "enqueue")] == 1

    def test_fault_timeline_capped(self):
        tr = SeriesTracker()
        for i in range(FAULT_TIMELINE_CAP + 5):
            tr.feed({"t": float(i), "cat": "fault.drop", "sub": f"msg{i}",
                     "src": 0, "dst": 1})
        assert len(tr.faults) == FAULT_TIMELINE_CAP
        assert tr.faults_dropped == 5
