"""Protocol-level tests for the TM proxy (Algorithms 2-4 plumbing)."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, SchedulerKind
from repro.dstm.errors import TransactionAborted, TransactionError
from repro.dstm.objects import ObjectMode, ObjectState
from repro.dstm.proxy import Grant


def make_cluster(**kw):
    defaults = dict(num_nodes=4, seed=17, scheduler=SchedulerKind.RTS,
                    cl_threshold=6)
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def open_one(cluster, node, oid, mode, tx=None):
    engine = cluster.engines[node]
    tx = tx or engine.begin()

    def driver(env):
        grant = yield from cluster.proxies[node].open_object(tx, oid, mode)
        return grant

    proc = cluster.env.process(driver(cluster.env))
    return cluster.env.run(until=proc), tx


class TestOpenObject:
    def test_read_grant_carries_snapshot(self):
        cluster = make_cluster()
        cluster.alloc("x", "payload", node=0)
        grant, _tx = open_one(cluster, 2, "x", ObjectMode.READ)
        assert isinstance(grant, Grant)
        assert grant.value == "payload"
        assert grant.version == 0
        assert grant.served_by == 0

    def test_acquire_transfers_ownership(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        engine = cluster.engines[3]
        root = engine.begin()
        root.wset["x"] = 2  # simulate a buffered write pre-acquire
        grant, _ = open_one(cluster, 3, "x", ObjectMode.ACQUIRE, tx=root)
        assert cluster.proxies[3].owns("x")
        assert cluster.proxies[3].store["x"].state is ObjectState.VALIDATING
        assert cluster.proxies[3].store["x"].holder == root.task_id
        assert not cluster.proxies[0].owns("x")

    def test_owner_hint_learned_from_grant(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        open_one(cluster, 2, "x", ObjectMode.READ)
        assert cluster.proxies[2].owner_hints["x"] == 0

    def test_unregistered_object_raises(self):
        cluster = make_cluster()
        engine = cluster.engines[0]
        tx = engine.begin()

        def driver(env):
            yield from cluster.proxies[0].open_object(tx, "ghost", ObjectMode.READ)

        proc = cluster.env.process(driver(cluster.env))
        with pytest.raises(TransactionError, match="not registered"):
            cluster.env.run(until=proc)

    def test_stale_hint_is_chased(self):
        cluster = make_cluster()
        cluster.alloc("x", 5, node=0)
        # Plant a wrong hint; node 1 replies not_owner and the requester
        # falls back to the directory.
        cluster.proxies[2].owner_hints["x"] = 1
        grant, _ = open_one(cluster, 2, "x", ObjectMode.READ)
        assert grant.value == 5


class TestHandoffForwarding:
    """Algorithm 4's else-branch: an object arriving for a transaction
    that no longer wants it must keep moving down the requester list."""

    def test_orphaned_transfer_forwards_to_next_queued_requester(self):
        from repro.net import MessageType
        from repro.scheduler.queues import Requester

        cluster = make_cluster()
        env = cluster.env
        oid = "hot"
        # The hand-off targets node 1's txid "t-dead", which aborted (no
        # waiter registered); the shipped queue names t2@node2 (acquire)
        # then t3@node3 (acquire).
        queue = [
            Requester(node=2, txid="t2", mode=ObjectMode.ACQUIRE),
            Requester(node=3, txid="t3", mode=ObjectMode.ACQUIRE),
        ]
        # t2 is genuinely waiting at node 2.
        waiter = env.event()
        cluster.proxies[2]._waiters[("t2", oid)] = waiter

        cluster.nodes[0].send(1, MessageType.OBJECT_HANDOFF, {
            "oid": oid, "txid": "t-dead", "mode": "a",
            "granted": True, "transferred": True,
            "value": 99, "version": 4,
            "queue": queue, "bk": 0.25,
            "local_cl": 2, "served_by": 0,
        })
        cluster.run(until=1.0)

        # Node 1 absorbed and immediately released: it must not keep it.
        assert not cluster.proxies[1].owns(oid)
        # t2 got the object, mid-commit, with the rest of the list intact.
        obj = cluster.proxies[2].store[oid]
        assert (obj.value, obj.version) == (99, 4)
        assert obj.state is ObjectState.VALIDATING and obj.holder == "t2"
        assert waiter.triggered
        granted = waiter.value
        assert granted["granted"] and not granted["transferred"]
        remaining = cluster.proxies[2].queues[oid].snapshot()
        assert [(r.node, r.txid) for r in remaining] == [(3, "t3")]


class TestConflictsAndQueues:
    def _validating_setup(self):
        """Owner node 0 holds x VALIDATING for a fake committing task."""
        cluster = make_cluster()
        cluster.alloc("x", 7, node=0)
        cluster.proxies[0].begin_validation("x", "task-committer")
        return cluster

    def test_remote_copy_request_conflicts(self):
        cluster = self._validating_setup()
        engine = cluster.engines[1]
        tx = engine.begin()
        # Force a fresh transaction (elapsed ~ 0): the RTS exec-time test
        # rejects it, which surfaces as a BUSY abort of the root.
        def driver(env):
            yield from cluster.proxies[1].open_object(tx, "x", ObjectMode.READ)

        proc = cluster.env.process(driver(cluster.env))
        with pytest.raises(TransactionAborted):
            cluster.env.run(until=proc)

    def test_local_request_parks_until_release(self):
        cluster = self._validating_setup()
        engine = cluster.engines[0]
        tx = engine.begin()

        def requester(env):
            grant = yield from cluster.proxies[0].open_object(tx, "x", ObjectMode.READ)
            return (env.now, grant.value)

        def releaser(env):
            yield env.timeout(0.5)
            cluster.proxies[0].release_object("x", committed=False)

        proc = cluster.env.process(requester(cluster.env))
        cluster.env.process(releaser(cluster.env))
        when, value = cluster.env.run(until=proc)
        assert value == 7
        assert when >= 0.5  # parked through the validation window

    def test_enqueued_remote_acquirer_receives_handoff(self):
        cluster = self._validating_setup()
        engine = cluster.engines[1]
        root = engine.begin()
        # Make the requester long-elapsed so RTS parks it.
        root.start_local_time -= 10.0

        def requester(env):
            grant = yield from cluster.proxies[1].open_object(
                root, "x", ObjectMode.ACQUIRE
            )
            return grant

        def releaser(env):
            yield env.timeout(0.2)
            cluster.proxies[0].release_object("x", committed=False)

        proc = cluster.env.process(requester(cluster.env))
        cluster.env.process(releaser(cluster.env))
        grant = cluster.env.run(until=proc)
        assert grant.value == 7
        # Ownership migrated with the hand-off.
        assert cluster.proxies[1].owns("x")
        assert not cluster.proxies[0].owns("x")

    def test_handoff_for_vanished_waiter_forwards_to_next(self):
        """Algorithm 4's else-branch: the object moves on to the next
        queued requester when the addressee gave up."""
        cluster = self._validating_setup()
        p0, p1, p2 = cluster.proxies[0], cluster.proxies[1], cluster.proxies[2]
        e1, e2 = cluster.engines[1], cluster.engines[2]
        r1 = e1.begin()
        r1.start_local_time -= 10.0
        r2 = e2.begin()
        r2.start_local_time -= 10.0

        outcome = {}

        def requester(proxy, root, key):
            def gen(env):
                try:
                    grant = yield from proxy.open_object(root, "x", ObjectMode.ACQUIRE)
                    outcome[key] = ("granted", env.now)
                except TransactionAborted as abort:
                    outcome[key] = ("aborted", abort.reason.value)
            return gen

        proc1 = cluster.env.process(requester(p1, r1, "r1")(cluster.env))
        proc2 = cluster.env.process(requester(p2, r2, "r2")(cluster.env))

        def releaser(env):
            # Wait long enough that r1's backoff budget cycles can expire,
            # then release; whichever waiter is still queued must get it.
            yield env.timeout(1.0)
            p0.release_object("x", committed=False)

        cluster.env.process(releaser(cluster.env))
        cluster.env.run(until=cluster.env.all_of([proc1, proc2]))
        granted = [k for k, v in outcome.items() if v[0] == "granted"]
        assert len(granted) >= 1
        # Exactly one node ends up owning the object.
        owners = [p.node.node_id for p in cluster.proxies if p.owns("x")]
        assert len(owners) == 1


class TestLocalCl:
    def test_local_cl_counts_queue_and_validator(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        proxy = cluster.proxies[0]
        assert proxy._local_cl("x") == 0
        proxy.begin_validation("x", "t0")
        assert proxy._local_cl("x") == 1

    def test_queue_length_reporting(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        assert cluster.proxies[0].queue_length("x") == 0


class TestBootstrap:
    def test_double_install_rejected(self):
        cluster = make_cluster()
        cluster.alloc("x", 1, node=0)
        with pytest.raises(TransactionError):
            cluster.proxies[0].install_object("x", 2)

    def test_bad_conflict_scope_rejected(self):
        from repro.dstm.proxy import TMProxy

        cluster = make_cluster()
        with pytest.raises(ValueError):
            TMProxy(
                cluster.nodes[0], cluster.proxies[0].scheduler,
                conflict_scope="nope",
            )
