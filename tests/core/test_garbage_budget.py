"""No object on the transaction path reaches the cyclic garbage collector.

A finished transaction attempt must be freed by reference counting the
moment its last holder lets go (DESIGN.md, "Memory: no cycles on the
transaction path").  Three sources made reference cycles before:

* a transaction tree's ``parent`` ↔ ``children`` links (with every
  level's read/write sets), now unlinked by ``Transaction.dismantle``
  when a root attempt ends and when a failed child is detached;
* ``Transaction.mark_aborted``'s recursive closure, which referenced
  itself through its cell — now a loop;
* the hand-off race: the losing event of an ``AnyOf`` kept the
  condition's ``_check`` while the condition kept the event — a decided
  ``Condition`` now drops its children.

The gate counts what the collector frees: the ``collected`` of every
pass during ``executor.run()`` (``gc.callbacks``), plus one final
``gc.collect()`` taken while the cluster is still referenced — so
anything still reachable from it (suspended processes at the horizon,
the sanitizer's history) does not count, and everything that became
unreachable during the run does.  The bound is zero.

Recorded with CPython 3.11.7 on the ledger cells (cluster seed 64,
full horizon), cyclic objects per commit before → after:
``hicont_vacation_20`` 81.7 → 0, ``serve_proxy_bank_8`` 32.8 → 0,
``lowcont_bank_80`` 4.5 → 0, the 12-node chaos cell (seed 200) 26.6
→ 0.
"""

import contextlib
import gc
import weakref

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.executor import WorkloadExecutor
from repro.dstm.errors import TransactionError
from repro.dstm.transaction import Transaction, TxStatus
from repro.sim import Environment
from repro.traffic.engine import OpenLoopExecutor
from repro.workloads.registry import make_workload

#: a high-contention vacation cell: nested aborts (own and parent-caused)
#: and hand-off waits whose backoff expires first
VACATION = dict(num_nodes=6, seed=64, scheduler="rts", cl_threshold=4)
VACATION_HORIZON = 4.0

#: a bank cell with every fault class on
FAULTS = dict(
    enabled=True, drop_rate=0.05, duplicate_rate=0.02,
    extra_delay_rate=0.05, extra_delay_max=0.02,
    crash_rate=0.2, crash_duration=0.5, partition_rate=0.1,
    schedule_horizon=10.0,
)

#: the serving cell's config: open-loop arrivals, proxy payloads, the
#: fenced lookup cache and the batch window
SERVING = dict(
    arrival=dict(enabled=True, process="poisson", rate=1.0, zipf_s=1.2),
    payload=dict(enabled=True, proxy=True, size=1 << 16),
    rpc=dict(cache=True, batch_window=0.002),
)


def cyclic_garbage(run):
    """Objects the cyclic collector frees during ``run()``, plus a final
    collection while the caller still holds the cluster."""
    freed = []

    def count(phase, info):
        if phase == "stop":
            freed.append(info["collected"])

    gc.collect()  # what earlier code left is not this run's
    gc.callbacks.append(count)
    try:
        run()
        gc.collect()
    finally:
        gc.callbacks.remove(count)
    return sum(freed)


@contextlib.contextmanager
def gc_off():
    """The cyclic collector off: what is freed here, reference counting
    freed."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def closed_loop(workload, read_fraction, horizon, **config):
    cluster = Cluster(ClusterConfig(**config))
    executor = WorkloadExecutor(
        cluster, make_workload(workload, read_fraction=read_fraction),
        workers_per_node=2, horizon=horizon, max_attempts_per_tx=256,
    )
    executor.setup()
    return cluster, executor


class TestNoCyclicGarbage:
    def test_high_contention_vacation(self):
        cluster, executor = closed_loop("vacation", 0.1, VACATION_HORIZON, **VACATION)
        assert cyclic_garbage(executor.run) == 0
        m = cluster.metrics
        assert m.commits.value > 0
        assert m.nested_aborts_own.value > 0
        assert m.nested_aborts_parent.value > 0
        assert m.root_aborts.value > 0

    def test_vacation_sanitized(self):
        cluster, executor = closed_loop(
            "vacation", 0.1, VACATION_HORIZON, check=dict(sanitize=True), **VACATION
        )
        assert cyclic_garbage(executor.run) == 0
        assert cluster.metrics.commits.value > 0
        waits = cluster.sanitizer.enqueue_waits
        assert any(not won for *_rest, won in waits), "no hand-off wait expired"
        assert any(won for *_rest, won in waits), "no hand-off wait won"

    def test_bank_with_every_fault_class(self):
        cluster, executor = closed_loop(
            "bank", 0.5, 10.0, num_nodes=12, seed=203, scheduler="rts",
            cl_threshold=4, faults=FAULTS,
        )
        assert cyclic_garbage(executor.run) == 0
        m = cluster.metrics
        assert m.commits.value > 0
        assert m.fault_drops.value > 0 and m.fault_duplicates.value > 0
        assert m.rpc_retries.value > 0
        assert cluster.fault_plan.crashes and cluster.fault_plan.partitions

    def test_serving_config(self):
        config = ClusterConfig(
            num_nodes=8, seed=64, scheduler="rts", cl_threshold=4, **SERVING
        )
        cluster = Cluster(config)
        executor = OpenLoopExecutor(
            cluster, make_workload("bank", read_fraction=0.2), config.arrival,
            service_workers=2, horizon=60.0, max_attempts_per_tx=256,
        )
        executor.setup()
        assert cyclic_garbage(executor.run) == 0
        assert cluster.metrics.commits.value > 0
        assert cluster.payload_stats()["payload_fetches"] > 0


def read_body(tx, oid):
    value = yield from tx.read(oid)
    return value


class TestDetachedChild:
    def test_a_retried_child_with_its_own_child_is_freed(self):
        """A child that aborts itself after its own nested child merged
        is detached from its parent with that grandchild still linked."""
        cluster = Cluster(ClusterConfig(num_nodes=3))
        cluster.alloc("x0", 0, node=1)
        attempts = []

        def child_body(tx):
            yield from tx.nested(read_body, "x0")
            attempts.append(tx.txid)
            if len(attempts) == 1:
                tx.retry_nested("once")

        def root_body(tx):
            yield from tx.nested(child_body)

        assert cyclic_garbage(
            lambda: cluster.run_transaction(root_body, node=0)
        ) == 0
        assert len(attempts) == 2
        assert cluster.metrics.nested_aborts_own.value == 1


def tree():
    """root → a (committed, with child a1 committed) and b (live, with
    child b1 live); returns the levels by name."""
    root = Transaction(node=0)
    a = Transaction(node=0, parent=root)
    a1 = Transaction(node=0, parent=a)
    a1.merge_into_parent()
    a.merge_into_parent()
    b = Transaction(node=0, parent=root)
    b1 = Transaction(node=0, parent=b)
    return dict(root=root, a=a, a1=a1, b=b, b1=b1)


class TestMarkAborted:
    def test_post_order_children_in_list_order_then_self(self):
        levels = tree()
        killed = levels["root"].mark_aborted()
        assert killed == [levels[name] for name in ("a1", "a", "b1", "b", "root")]
        assert all(tx.status is TxStatus.ABORTED for tx in levels.values())

    def test_an_aborted_subtree_is_not_killed_again(self):
        levels = tree()
        assert levels["b"].mark_aborted() == [levels["b1"], levels["b"]]
        killed = levels["root"].mark_aborted()
        assert killed == [levels["a1"], levels["a"], levels["root"]]

    def test_a_dead_level_cannot_abort(self):
        levels = tree()
        with pytest.raises(TransactionError):
            levels["a"].mark_aborted()

    def test_a_deep_chain_aborts_without_recursion(self):
        root = tx = Transaction(node=0)
        for _ in range(2000):
            tx = Transaction(node=0, parent=tx)
        killed = root.mark_aborted()
        assert len(killed) == 2001
        assert killed[0] is tx and killed[-1] is root

    def test_dismantle_unlinks_every_level(self):
        levels = tree()
        levels["root"].mark_aborted()
        probe = weakref.ref(levels["a1"])
        levels["root"].dismantle()
        assert all(tx.children == [] for tx in levels.values())
        with gc_off():
            levels.clear()
            assert probe() is None


class Marker:
    """A value a weak reference can watch."""


class TestDecidedConditionLetsGo:
    def test_anyof_whose_loser_never_fires_is_freed_without_gc(self):
        env = Environment()
        with gc_off():
            winner_value = Marker()
            probe = weakref.ref(winner_value)
            loser = env.event()
            race = loser | env.timeout(1.0, winner_value)
            del winner_value
            env.run(until=race)
            assert list(race.value.values()) == [probe()]
            del race
            assert loser.callbacks  # still pending, still holds the race's _check
            del loser
            assert probe() is None
