"""An abandoned transfer comes back through the lease reclaim.

The dropped-hand-off scenario: an owner grants an ownership transfer
(deleting its copy; the re-grant memory keeps the idempotent re-send),
the response is lost, and the requester never takes the copy or
registers it — the single writable copy now exists only in the old
owner's memory.  The lease reclaim is the one way it comes back: once
the entry's lease lapses, the next read re-hosts the object at the
home's snapshot under a new custody generation.

When the old owner is the home itself, its entry names the home all
along; the transfer arms the lease, so that entry is reclaimed too.
Every cluster here is sanitized, and every run is bounded in simulated
time and attempts, so a regression fails rather than hangs.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, FaultConfig
from repro.dstm.objects import home_node
from repro.faults import recovery
from repro.net import MessageType
from repro.rpc import RetryPolicy

LEASE = 0.5


@pytest.fixture(autouse=True)
def short_recovery(monkeypatch):
    """These scenarios run on a shorter recovery timing than the
    protocol's: one retry, a 0.5 s lease and a 0.2 s grace."""
    monkeypatch.setattr(
        recovery, "RETRY_POLICY",
        RetryPolicy(timeout=0.1, max_retries=1, backoff_cap=0.2),
    )
    monkeypatch.setattr(recovery, "LEASE_DURATION", LEASE)
    monkeypatch.setattr(recovery, "LEASE_RENEW_INTERVAL", 0.2)
    monkeypatch.setattr(recovery, "RECLAIM_GRACE", 0.2)


def make_cluster(num_nodes):
    return Cluster(ClusterConfig(
        num_nodes=num_nodes, seed=7, faults=FaultConfig(enabled=True),
        check=dict(sanitize=True),
    ))


def homed_at_0(num_nodes):
    return next(o for o in ("x", "y", "z", "w", "v") if home_node(o, num_nodes) == 0)


def drop_handoff(cluster, oid, owner, requester, txid="root1"):
    """``requester`` acquires ``oid`` from ``owner`` and 'loses' the
    response: the grant is never installed nor registered."""
    replies = []

    def retrieve():
        r = yield cluster.nodes[requester].submit(
            owner, MessageType.RETRIEVE_REQUEST,
            {"oid": oid, "txid": txid, "mode": "a"},
        )
        replies.append(r.payload)

    cluster.spawn(retrieve())
    cluster.run(until=cluster.env.now + 0.2)
    assert replies[0]["granted"] and replies[0]["transferred"]
    assert oid not in cluster.proxies[owner].store, "transfer deletes the copy"
    assert oid in cluster.proxies[owner].recovery.granted
    return replies[0]


def bump(tx, oid):
    v = yield from tx.read(oid)
    yield from tx.write(oid, v + 1)
    return v


@pytest.mark.parametrize("owner", [0, 1], ids=["home-owned", "remote-owned"])
def test_abandoned_transfer_is_reclaimed_and_commits_again(owner):
    """Node 0 homes the object; ``owner`` holds it and transfers it to
    node 2, which abandons it.  Past the lease the home re-hosts the
    object at the snapshot, drops its own re-grant memory, and the
    object commits again."""
    cluster = make_cluster(3)
    oid = homed_at_0(3)
    cluster.alloc(oid, 10, node=owner)
    drop_handoff(cluster, oid, owner=owner, requester=2)
    directory = cluster.directories[0]
    assert directory.entry(oid).owner == owner, "the registration never came"

    cluster.run(until=cluster.env.now + 2 * LEASE + 0.1)
    assert directory.owner_of(oid) == 0, "the read reclaims"
    assert cluster.metrics.lease_reclaims.value == 1
    assert directory.entry(oid).gen == 1
    assert cluster.proxies[0].recovery.granted == {}
    assert cluster.proxies[0].store[oid].value == 10

    for node in (2, owner):
        assert cluster.run_transaction(bump, oid, node=node, max_attempts=16) in (10, 11)
    assert cluster.authoritative_value(oid) == 12
    assert cluster.metrics.lease_reclaims.value == 1
    assert cluster.sanitizer.checks > 0


def test_home_owned_entry_is_not_reclaimed_while_the_home_holds_it():
    """An entry the home owns, with its copy in the home's store, is
    never reclaimable, however long ago its lease was armed."""
    cluster = make_cluster(2)
    oid = homed_at_0(2)
    cluster.alloc(oid, 5, node=0)
    cluster.run(until=10 * LEASE)
    assert not cluster.directories[0].recovery.reclaimable(oid)
    assert cluster.directories[0].owner_of(oid) == 0
    assert cluster.metrics.lease_reclaims.value == 0


def test_regrant_to_a_live_requester_renews_the_lease():
    """The requester asks again with the same txid: the home re-sends
    the original transfer and re-arms the lease, so it does not reclaim
    from under a requester that is still alive."""
    cluster = make_cluster(2)
    oid = homed_at_0(2)
    cluster.alloc(oid, 5, node=0)
    first = drop_handoff(cluster, oid, owner=0, requester=1)
    recovery = cluster.directories[0].recovery
    armed = recovery.leases[oid]

    cluster.run(until=cluster.env.now + 0.8 * LEASE)
    again = drop_handoff(cluster, oid, owner=0, requester=1)
    assert again == first, "the re-grant is the original transfer"
    assert recovery.leases[oid] > armed
    # past the first lease, inside the renewed one: not reclaimable
    cluster.run(until=cluster.env.now + 0.3 * LEASE)
    assert cluster.nodes[0].now_local > armed
    assert not recovery.reclaimable(oid)
    assert cluster.directories[0].owner_of(oid) == 0
    assert cluster.metrics.lease_reclaims.value == 0
