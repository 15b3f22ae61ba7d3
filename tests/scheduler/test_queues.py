"""Unit tests for the per-object requester queues (scheduling_List)."""

from repro.dstm.objects import ObjectMode
from repro.scheduler.queues import Requester, RequesterList


def req(txid, mode=ObjectMode.ACQUIRE, node=0):
    return Requester(node=node, txid=txid, mode=mode)


class TestBasicQueue:
    def test_empty(self):
        q = RequesterList()
        assert len(q) == 0
        assert q.get_contention() == 0
        assert q.pop_next_acquirer() is None
        assert q.pop_copy_requesters() == []

    def test_add_and_contention(self):
        q = RequesterList()
        q.add_requester(req("t1"))
        q.add_requester(req("t2"))
        assert len(q) == 2
        assert q.get_contention() == 2
        assert "t1" in q and "t3" not in q

    def test_fifo_order(self):
        q = RequesterList()
        for i in range(3):
            q.add_requester(req(f"t{i}"))
        assert q.pop_next_acquirer().txid == "t0"
        assert q.pop_next_acquirer().txid == "t1"

    def test_iteration(self):
        q = RequesterList()
        q.add_requester(req("a"))
        q.add_requester(req("b"))
        assert [e.txid for e in q] == ["a", "b"]


class TestDuplicateRemoval:
    def test_remove_duplicate(self):
        q = RequesterList()
        q.add_requester(req("t1"))
        q.add_requester(req("t2"))
        assert q.remove_duplicate("t1") is True
        assert [e.txid for e in q] == ["t2"]

    def test_remove_missing_is_noop(self):
        q = RequesterList()
        q.add_requester(req("t1"))
        assert q.remove_duplicate("zzz") is False
        assert len(q) == 1

    def test_removes_only_first_match(self):
        q = RequesterList()
        q.add_requester(req("t1"))
        q.add_requester(req("t1"))
        q.remove_duplicate("t1")
        assert len(q) == 1


class TestModeService:
    def test_pop_copy_requesters_takes_reads_and_write_copies(self):
        q = RequesterList()
        q.add_requester(req("r1", ObjectMode.READ))
        q.add_requester(req("a1", ObjectMode.ACQUIRE))
        q.add_requester(req("w1", ObjectMode.WRITE))
        copies = q.pop_copy_requesters()
        assert sorted(e.txid for e in copies) == ["r1", "w1"]
        assert [e.txid for e in q] == ["a1"]

    def test_pop_next_acquirer_fifo(self):
        q = RequesterList()
        q.add_requester(req("r1", ObjectMode.READ))
        q.add_requester(req("a1", ObjectMode.ACQUIRE))
        q.add_requester(req("a2", ObjectMode.ACQUIRE))
        assert q.pop_next_acquirer().txid == "a1"
        assert q.pop_next_acquirer().txid == "a2"
        assert q.pop_next_acquirer() is None
        assert len(q) == 1  # the reader remains


class TestBacklogAndShipping:
    def test_backlog_reset(self):
        q = RequesterList()
        q.bk = 1.5
        q.reset_backlog()
        assert q.bk == 0.0

    def test_snapshot_roundtrip(self):
        q = RequesterList()
        q.add_requester(req("t1"))
        q.add_requester(req("t2"))
        q.bk = 0.7
        shipped = RequesterList.from_snapshot(q.snapshot(), bk=q.bk)
        assert [e.txid for e in shipped] == ["t1", "t2"]
        assert shipped.bk == 0.7

    def test_snapshot_is_shallow_copy(self):
        q = RequesterList()
        q.add_requester(req("t1"))
        snap = q.snapshot()
        q.pop_next_acquirer()
        assert len(snap) == 1
