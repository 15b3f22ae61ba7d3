"""Unit tests for the transaction model and nesting semantics."""

import pytest

from repro.dstm.errors import TransactionError
from repro.dstm.transaction import (
    ETS,
    NestingModel,
    Transaction,
    TxStatus,
)


def make_root(**kw):
    return Transaction(node=0, **kw)


class TestStructure:
    def test_root_has_no_parent(self):
        root = make_root()
        assert root.is_root
        assert root.root is root
        assert root.depth == 0

    def test_child_chain(self):
        root = make_root()
        child = Transaction(node=0, parent=root)
        grandchild = Transaction(node=0, parent=child)
        assert grandchild.root is root
        assert grandchild.depth == 2
        assert list(grandchild.ancestors()) == [grandchild, child, root]
        assert root.is_ancestor_of(grandchild)
        assert not grandchild.is_ancestor_of(root)

    def test_children_registered(self):
        root = make_root()
        child = Transaction(node=0, parent=root)
        assert child in root.children

    def test_task_id_inherited(self):
        root = make_root(task_id="task-7")
        child = Transaction(node=0, parent=root)
        assert child.task_id == "task-7"

    def test_task_id_defaults_to_txid(self):
        root = make_root()
        assert root.task_id == root.txid

    def test_txids_unique(self):
        assert make_root().txid != make_root().txid

    def test_live_descendants(self):
        root = make_root()
        a = Transaction(node=0, parent=root)
        b = Transaction(node=0, parent=root)
        b.status = TxStatus.COMMITTED
        assert list(root.live_descendants()) == [a]


class TestReadWriteSets:
    def test_write_then_lookup(self):
        root = make_root()
        root.record_write("o1", 42)
        assert root.has_local_value("o1")
        assert root.lookup_write("o1") == 42

    def test_child_sees_parent_writes(self):
        root = make_root()
        root.record_write("o1", "parent-value")
        child = Transaction(node=0, parent=root)
        assert child.lookup_write("o1") == "parent-value"

    def test_child_write_shadows_parent(self):
        root = make_root()
        root.record_write("o1", "old")
        child = Transaction(node=0, parent=root)
        child.record_write("o1", "new")
        assert child.lookup_write("o1") == "new"
        assert root.lookup_write("o1") == "old"

    def test_flat_nesting_writes_to_root(self):
        root = make_root(nesting=NestingModel.FLAT)
        child = Transaction(node=0, parent=root, nesting=NestingModel.FLAT)
        child.record_write("o1", 5)
        assert "o1" in root.wset
        assert "o1" not in child.wset

    def test_record_read_first_wins(self):
        root = make_root()
        root.record_read("o1", version=3, served_by=1)
        root.record_read("o1", version=9, served_by=2)
        assert root.rset["o1"].version == 3

    def test_has_read_through_chain(self):
        root = make_root()
        root.record_read("o1", 1, 0)
        child = Transaction(node=0, parent=root)
        assert child.has_read("o1")
        assert child.read_version("o1") == 1
        assert child.read_version("missing") is None

    def test_ops_on_dead_transaction_rejected(self):
        root = make_root()
        root.status = TxStatus.ABORTED
        with pytest.raises(TransactionError):
            root.record_read("o1", 1, 0)
        root.status = TxStatus.COMMITTED
        with pytest.raises(TransactionError):
            root.record_write("o1", 1)

    def test_holds_through_chain(self):
        root = make_root()
        root.acquired.add("o1")
        child = Transaction(node=0, parent=root)
        assert child.holds("o1")
        assert not child.holds("o2")


class TestMerge:
    def test_merge_moves_sets_to_parent(self):
        root = make_root()
        child = Transaction(node=0, parent=root)
        child.record_read("r1", 5, 0)
        child.record_write("w1", "v")
        child.acquired.add("w1")
        child.known_cl["w1"] = 2
        child.merge_into_parent()
        assert child.status is TxStatus.COMMITTED
        assert root.rset["r1"].version == 5
        assert root.wset["w1"] == "v"
        assert "w1" in root.acquired
        assert root.known_cl["w1"] == 2

    def test_merge_does_not_clobber_parent_reads(self):
        root = make_root()
        root.record_read("o1", 1, 0)
        child = Transaction(node=0, parent=root)
        child.record_read("o1", 2, 0)
        child.merge_into_parent()
        assert root.rset["o1"].version == 1

    def test_merge_root_rejected(self):
        with pytest.raises(TransactionError):
            make_root().merge_into_parent()

    def test_merge_dead_child_rejected(self):
        root = make_root()
        child = Transaction(node=0, parent=root)
        child.status = TxStatus.ABORTED
        with pytest.raises(TransactionError):
            child.merge_into_parent()


class TestAbort:
    def test_abort_kills_subtree_including_committed(self):
        root = make_root()
        committed = Transaction(node=0, parent=root)
        committed.merge_into_parent()
        live = Transaction(node=0, parent=root)
        killed = root.mark_aborted()
        assert set(killed) == {root, committed, live}
        assert committed.status is TxStatus.ABORTED
        assert live.status is TxStatus.ABORTED

    def test_abort_spares_previously_aborted(self):
        root = make_root()
        child = Transaction(node=0, parent=root)
        child.mark_aborted()
        killed = root.mark_aborted()
        assert child not in killed

    def test_abort_child_spares_parent(self):
        root = make_root()
        child = Transaction(node=0, parent=root)
        killed = child.mark_aborted()
        assert killed == [child]
        assert root.status is TxStatus.LIVE

    def test_double_abort_rejected(self):
        root = make_root()
        root.mark_aborted()
        with pytest.raises(TransactionError):
            root.mark_aborted()


class TestETS:
    def test_elapsed_and_remaining(self):
        ets = ETS(start=1.0, request=3.0, expected_commit=7.0)
        assert ets.elapsed == 2.0
        assert ets.expected_remaining == 4.0

    def test_remaining_clamped_at_zero(self):
        ets = ETS(start=0.0, request=10.0, expected_commit=5.0)
        assert ets.expected_remaining == 0.0


class TestMyCL:
    def test_my_cl_sums_known(self):
        root = make_root()
        root.known_cl = {"a": 2, "b": 3}
        assert root.my_cl() == 5

    def test_my_cl_empty(self):
        assert make_root().my_cl() == 0
