"""Orphan repatriation: a transferred copy nobody claimed goes home.

The dropped-hand-off scenario: the owner grants an ownership transfer
(deleting its copy; the grant cache keeps the idempotent re-grant), the
response is lost, and the requester never retries — the single writable
copy now exists only in the old owner's recovery memory.  The sweep
must return it to the home snapshot *before* lease expiry would re-host
an older value.
"""

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, FaultConfig
from repro.dstm.objects import home_node
from repro.net import MessageType


def home0_oid():
    oid = next(o for o in ("x", "y", "z", "w", "v") if home_node(o, 2) == 0)
    return oid


def make_cluster(**fault_kw):
    kw = dict(
        enabled=True, rpc_timeout=0.1, rpc_max_retries=1, rpc_backoff_cap=0.2,
        orphan_sweep_interval=0.5, orphan_min_age=0.2,
    )
    kw.update(fault_kw)
    return Cluster(ClusterConfig(num_nodes=2, seed=7, faults=FaultConfig(**kw)))


def drop_handoff(cluster, oid, txid="root1"):
    """Node 1 acquires ``oid`` from node 0 and 'loses' the response: the
    grant is never installed, never retried, never registered."""
    replies = []

    def retrieve():
        r = yield cluster.nodes[1].submit(
            0, MessageType.RETRIEVE_REQUEST,
            {"oid": oid, "txid": txid, "mode": "a"},
        )
        replies.append(r.payload)

    cluster.spawn(retrieve())
    cluster.run(until=0.2)
    assert replies[0]["granted"] and replies[0]["transferred"]
    assert oid not in cluster.proxies[0].store, "transfer deletes the copy"
    assert oid in cluster.proxies[0].recovery.granted
    return replies[0]


class TestRepatriation:
    def test_abandoned_grant_returns_to_home_snapshot(self):
        oid = home0_oid()
        cluster = make_cluster()
        cluster.alloc(oid, 42, node=0)
        before = cluster.directories[0].registered_version(oid)
        drop_handoff(cluster, oid)

        cluster.run(until=2.0)

        assert cluster.metrics.orphan_returns.value == 1
        assert cluster.proxies[0].recovery.granted == {}, "sweep drops the cache"
        # Re-hosted at home at the returned copy's version, under a new
        # custody generation.
        obj = cluster.proxies[0].store[oid]
        assert (obj.value, obj.version, obj.gen) == (42, before, 1)
        assert cluster.directories[0].entry(oid).gen == 1
        assert cluster.directories[0].owner_of(oid) == 0
        assert cluster.directories[0].registered_version(oid) == obj.version
        assert cluster.authoritative_value(oid) == 42

    def test_object_usable_again_after_repatriation(self):
        oid = home0_oid()
        cluster = make_cluster()
        cluster.alloc(oid, 10, node=0)
        drop_handoff(cluster, oid)
        cluster.run(until=2.0)

        def bump(tx):
            v = yield from tx.read(oid)
            yield from tx.write(oid, v + 1)
            return v

        assert cluster.run_transaction(bump, node=1) == 10
        assert cluster.authoritative_value(oid) == 11

    def test_young_grants_wait_out_min_age(self):
        """An entry younger than min_age may still be claimed by the
        requester's in-flight retries: the sweep must not race them."""
        oid = home0_oid()
        cluster = make_cluster(orphan_min_age=60.0)
        cluster.alloc(oid, 5, node=0)
        drop_handoff(cluster, oid)
        cluster.run(until=3.0)
        assert cluster.metrics.orphan_returns.value == 0
        assert oid in cluster.proxies[0].recovery.granted


class TestFencedReturn:
    def test_return_fenced_when_registry_moved_on(self):
        """If the requester did register after all (or a reclaim won), the
        home refuses the return and the old owner drops its re-grant
        cache — resurrecting the stale copy would fork history."""
        oid = home0_oid()
        cluster = make_cluster()
        cluster.alloc(oid, 1, node=0)
        drop_handoff(cluster, oid)
        # The registry moves past the grant: the requester registered a
        # committed write at a newer version (and holds the copy, so its
        # lease heartbeats keep the entry alive).
        from repro.dstm.objects import VersionedObject

        cluster.directories[0].register(
            oid, owner=1, version=9, value="newer", value_version=9
        )
        cluster.proxies[1].store[oid] = VersionedObject(oid, "newer", 9)
        cluster.run(until=2.0)

        assert cluster.metrics.orphan_returns.value == 0
        assert cluster.proxies[0].recovery.granted == {}, "fenced reply drops cache"
        assert cluster.directories[0].owner_of(oid) == 1
        assert cluster.directories[0].registered_version(oid) == 9
