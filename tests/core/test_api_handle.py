"""Tests for TransactionHandle ergonomics and retry-runner edge cases."""

import pytest

from repro.core.api import Cluster, TransactionHandle
from repro.core.config import ClusterConfig, SchedulerKind
from repro.dstm.errors import AbortReason, TransactionAborted, TransactionError
from repro.dstm.transaction import NestingModel


def make_cluster(**kw):
    defaults = dict(num_nodes=3, seed=31, scheduler=SchedulerKind.TFA)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


class TestHandleSurface:
    def test_exposes_transaction_metadata(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        seen = {}

        def body(tx):
            seen["txid"] = tx.txid
            seen["depth"] = tx.depth
            yield from tx.read("x")

            def child(tx2):
                seen["child_depth"] = tx2.depth
                yield from tx2.read("x")

            yield from tx.nested(child)

        cluster.run_transaction(body, node=0)
        assert seen["depth"] == 0
        assert seen["child_depth"] == 1
        assert seen["txid"].startswith("tx")

    def test_nested_on_dead_parent_rejected(self):
        cluster = make_cluster()
        engine = cluster.engines[0]
        root = engine.begin()
        handle = TransactionHandle(engine, root)
        root.mark_aborted()

        def child(tx):
            yield from tx.compute(0.0)

        def driver(env):
            yield from handle.nested(child)

        proc = cluster.env.process(driver(cluster.env))
        with pytest.raises(TransactionError, match="nested"):
            cluster.env.run(until=proc)


class TestRetryRunner:
    def test_max_attempts_exhaustion_raises(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)

        def body(tx):
            # Force an abort every attempt via a doomed validation: write
            # then externally bump the version is complex; use retry_nested
            # on the root via tx.abort... USER_ABORT doesn't retry. Use a
            # synthetic abort instead:
            yield from tx.read("x")
            raise TransactionAborted(
                tx.transaction.root, AbortReason.EARLY_VALIDATION
            )

        with pytest.raises(TransactionAborted):
            cluster.run_transaction(body, node=0, max_attempts=3)
        assert cluster.metrics.root_aborts.value == 3

    def test_zero_max_attempts_refused_before_the_body_runs(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=1)
        ran = []

        def body(tx):
            ran.append(tx.txid)
            value = yield from tx.read("x")
            return value

        with pytest.raises(ValueError, match="max_attempts"):
            cluster.run_transaction(body, node=1, max_attempts=0)
        assert ran == [] and cluster.metrics.commits.value == 0

    def test_negative_nested_max_retries_refused_before_the_child_runs(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        ran = []

        def child(tx):
            ran.append(tx.txid)
            yield from tx.read("x")

        def body(tx):
            yield from tx.nested(child, max_retries=-1)

        with pytest.raises(ValueError, match="max_retries"):
            cluster.run_transaction(body, node=0)
        assert ran == []

    def test_retry_gets_fresh_transaction_same_task(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        seen = []

        def body(tx):
            seen.append((tx.txid, tx.transaction.task_id))
            yield from tx.read("x")
            if len(seen) < 3:
                raise TransactionAborted(
                    tx.transaction.root, AbortReason.EARLY_VALIDATION
                )

        cluster.run_transaction(body, node=0)
        txids = [t for t, _ in seen]
        tasks = {t for _, t in seen}
        assert len(set(txids)) == 3      # fresh transaction per attempt
        assert len(tasks) == 1           # stable protocol identity

    def test_info_dict_populated_on_commit(self):
        from repro.core.api import run_root

        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        info = {}

        def body(tx):
            yield from tx.write("x", 2)

        def driver(env):
            yield from run_root(cluster, cluster.engines[0], body, (),
                                info=info)

        proc = cluster.env.process(driver(cluster.env))
        cluster.env.run(until=proc)
        assert info["attempts"] == 1
        assert info["serialized_at"] is not None
        assert info["txid"].startswith("tx")


class TestFlatNesting:
    def test_nested_inlines_under_flat_model(self):
        cluster = make_cluster(nesting=NestingModel.FLAT)
        cluster.alloc("x", 0, node=0)
        depths = []

        def child(tx):
            depths.append(tx.depth)
            v = yield from tx.read("x")
            yield from tx.write("x", v + 1)

        def parent(tx):
            yield from tx.nested(child)
            yield from tx.nested(child)

        cluster.run_transaction(parent, node=1)
        assert depths == [0, 0]  # inlined: no child levels at all
        assert cluster.committed_value("x") == 2
        assert cluster.metrics.nested_commits.value == 0
