"""Unit tests for the metrics collector."""

import pytest

from repro.core.metrics import MetricsCollector
from repro.dstm.errors import AbortReason
from repro.dstm.transaction import Transaction


def tree(children=2, committed=True):
    root = Transaction(node=0)
    kids = [Transaction(node=0, parent=root) for _ in range(children)]
    if committed:
        for k in kids:
            k.merge_into_parent()
    return root, kids


class TestCommitAccounting:
    def test_commit_counts_and_latency(self):
        m = MetricsCollector()
        root, _ = tree()
        m.on_commit(root, duration=0.5)
        assert m.commits.value == 1
        assert m.commit_latency.mean == 0.5
        assert m.per_profile_commits[root.profile] == 1

    def test_nested_commits_counted(self):
        m = MetricsCollector()
        root, kids = tree(children=3)
        m.on_commit(root, 0.1)
        assert m.nested_commits.value == 3

    def test_deep_descendants_counted(self):
        m = MetricsCollector()
        root = Transaction(node=0)
        child = Transaction(node=0, parent=root)
        Transaction(node=0, parent=child).merge_into_parent()
        child.merge_into_parent()
        m.on_commit(root, 0.1)
        assert m.nested_commits.value == 2


class TestAbortAccounting:
    def test_root_abort_kills_children_as_parent_cause(self):
        m = MetricsCollector()
        root, kids = tree(children=2)
        killed = root.mark_aborted()
        m.on_abort(root, AbortReason.BUSY_OBJECT, killed)
        assert m.root_aborts.value == 1
        assert m.nested_aborts_parent.value == 2
        assert m.nested_aborts_own.value == 0
        assert m.aborts_by_reason[AbortReason.BUSY_OBJECT] == 1

    def test_nested_self_abort_is_own_cause(self):
        m = MetricsCollector()
        root = Transaction(node=0)
        child = Transaction(node=0, parent=root)
        killed = child.mark_aborted()
        m.on_abort(child, AbortReason.EARLY_VALIDATION, killed)
        assert m.root_aborts.value == 0
        assert m.nested_aborts_own.value == 1
        assert m.nested_aborts_parent.value == 0

    def test_nested_abort_with_descendants(self):
        m = MetricsCollector()
        root = Transaction(node=0)
        child = Transaction(node=0, parent=root)
        Transaction(node=0, parent=child).merge_into_parent()
        killed = child.mark_aborted()
        m.on_abort(child, AbortReason.EARLY_VALIDATION, killed)
        assert m.nested_aborts_own.value == 1
        assert m.nested_aborts_parent.value == 1  # the grandchild


class TestDerivedQuantities:
    def test_nested_abort_rate(self):
        m = MetricsCollector()
        m.nested_aborts_own.increment(3)
        m.nested_aborts_parent.increment(7)
        assert m.nested_abort_rate() == pytest.approx(0.7)

    def test_nested_abort_rate_empty(self):
        assert MetricsCollector().nested_abort_rate() == 0.0

    def test_abort_ratio(self):
        m = MetricsCollector()
        root, _ = tree()
        m.on_commit(root, 0.1)
        other = Transaction(node=0)
        m.on_abort(other, AbortReason.BUSY_OBJECT, other.mark_aborted())
        assert m.abort_ratio() == pytest.approx(0.5)

    def test_throughput_window(self):
        m = MetricsCollector()
        m.window_start, m.window_end = 2.0, 12.0
        root, _ = tree()
        m.on_commit(root, 0.1)
        assert m.throughput() == pytest.approx(0.1)
        assert m.throughput(elapsed=5.0) == pytest.approx(0.2)

    def test_summary_keys(self):
        summary = MetricsCollector().summary()
        for key in ("commits", "abort_ratio", "nested_abort_rate"):
            assert key in summary

    def test_summary_omits_optional_keys_by_default(self):
        summary = MetricsCollector().summary()
        assert "throughput" not in summary
        assert "commit_latency_p50" not in summary

    def test_summary_throughput_with_window(self):
        m = MetricsCollector()
        m.window_start, m.window_end = 0.0, 4.0
        root, _ = tree()
        m.on_commit(root, 0.1)
        assert m.summary()["throughput"] == pytest.approx(0.25)

    def test_summary_percentiles_absent_without_samples(self):
        m = MetricsCollector()
        root, _ = tree()
        m.on_commit(root, 0.5)
        assert "commit_latency_p50" not in m.summary()
