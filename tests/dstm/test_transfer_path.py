"""The transfer path as a table.

Every way an object's value leaves a node — a grant (copy or transfer),
the hand-off to the next queued acquirer, the read multicast — is built
by ``TMProxy._send_object``, and whether an arriving transfer is
installed — a grant, a hand-off, or an arrival nobody waits for (the
hand-off else-branch of Algorithm 4, a late ``RETRIEVE_RESPONSE`` under
fault recovery) — is decided by ``TMProxy._install_transferred``, the
custody rule.  These cases pin the fields that are *simulated
behaviour* on each row of that table, with the payload plane off and on.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, FaultConfig, SchedulerKind
from repro.dstm.objects import ObjectMode, ObjectState
from repro.net import MessageType
from repro.rpc import RetryPolicy
from repro.rpc.payload import PROXY_SIZE
from repro.scheduler.queues import Requester, RequesterList

SIZE = 4096
#: plane -> (PayloadConfig kwargs, bytes a value-carrying message ships)
PLANES = {
    "off": (None, 0),
    "proxy": (dict(enabled=True, proxy=True, size=SIZE), PROXY_SIZE),
}
OID = "x"


def make_cluster(plane="off", **kw):
    cfg = dict(num_nodes=4, seed=17, scheduler=SchedulerKind.RTS, cl_threshold=6)
    if PLANES[plane][0] is not None:
        cfg["payload"] = PLANES[plane][0]
    cfg.update(kw)
    cluster = Cluster(ClusterConfig(**cfg))
    cluster.alloc(OID, 7, node=0)
    return cluster


def queued(node, txid, mode=ObjectMode.ACQUIRE):
    """A queue entry: root ``txid`` at ``node`` waiting in ``mode``."""
    return Requester(node=node, txid=txid, mode=mode)


def retrieve(cluster, src, mode, txid="t-req"):
    """One raw RETRIEVE_REQUEST from ``src`` to node 0; returns the reply
    message (envelope and payload)."""
    box = []

    def proc():
        reply = yield cluster.nodes[src].submit(
            0, MessageType.RETRIEVE_REQUEST,
            {"oid": OID, "txid": txid, "mode": mode.value},
        )
        box.append(reply)

    cluster.spawn(proc())
    cluster.run(until=cluster.env.now + 0.5)
    return box[0]


def tap(cluster, node, mtype):
    """Record every ``mtype`` message ``node`` handles (and what the
    handler sent while handling it), then let the handler run."""
    seen = []
    handlers = cluster.nodes[node]._handlers
    inner = handlers[mtype]

    def recording(msg):
        before = cluster.network.messages_sent.value
        inner(msg)
        seen.append((msg, cluster.network.messages_sent.value - before))

    handlers[mtype] = recording
    return seen


def check_plane(plane, msg, factory):
    """``psrc`` and ``wire_bytes`` of one value-carrying message."""
    assert msg.wire_bytes == PLANES[plane][1]
    if plane == "proxy":
        assert msg.payload["psrc"] == factory
    else:
        assert "psrc" not in msg.payload


@pytest.mark.parametrize("plane", sorted(PLANES))
class TestWhatLeaves:
    def test_copy_grant(self, plane):
        cluster = make_cluster(plane)
        owner = cluster.proxies[0]
        owner.queues[OID] = RequesterList.from_snapshot([queued(3, "t3")], bk=0.25)
        cluster.nodes[0].clock.advance_to(41)
        reply = retrieve(cluster, 1, ObjectMode.READ)
        p = reply.payload
        assert p["granted"] and not p["transferred"]
        assert (p["value"], p["version"], p["served_by"]) == (7, 0, 0)
        # local_cl is the owner's _local_cl: one queued, nobody validating
        assert p["local_cl"] == 1
        # the queue stays where the object stays
        assert "queue" not in p and "bk" not in p
        assert owner.owns(OID) and owner.queue_length(OID) == 1
        assert reply.clock == 41
        check_plane(plane, reply, factory=0)

    def test_a_grant_records_the_reply_envelopes_clock(self, plane):
        cluster = make_cluster(plane)
        cluster.nodes[0].clock.advance_to(41)
        tx = cluster.engines[1].begin()

        def driver():
            grant = yield from cluster.proxies[1].open_object(tx, OID, ObjectMode.READ)
            return grant

        grant = cluster.env.run(until=cluster.spawn(driver()))
        assert (grant.owner_clock, grant.local_cl, grant.served_by) == (41, 0, 0)
        assert grant.psrc == (0 if plane == "proxy" else None)

    def test_holder_regrant_counts_the_validator(self, plane):
        cluster = make_cluster(plane)
        owner = cluster.proxies[0]
        owner.begin_validation(OID, "t-holder")
        owner.queues[OID] = RequesterList.from_snapshot([queued(3, "t3")])
        reply = retrieve(cluster, 0, ObjectMode.ACQUIRE, txid="t-holder")
        p = reply.payload
        assert p["granted"] and not p["transferred"]
        assert p["local_cl"] == 2      # the queue plus the validator
        assert "queue" not in p and owner.owns(OID)
        check_plane(plane, reply, factory=0)

    def test_transferred_grant(self, plane):
        cluster = make_cluster(plane)
        owner = cluster.proxies[0]
        waiting = queued(3, "t3")
        owner.queues[OID] = RequesterList.from_snapshot([waiting], bk=0.25)
        reply = retrieve(cluster, 1, ObjectMode.ACQUIRE)
        p = reply.payload
        assert p["granted"] and p["transferred"]
        assert p["local_cl"] == 1
        # the queue and its backlog travel with the single writable copy
        assert p["queue"] == [waiting] and p["bk"] == 0.25
        assert not owner.owns(OID) and OID not in owner.queues
        assert owner.owner_hints.owner(OID) == 1
        check_plane(plane, reply, factory=0)

    def test_release_multicasts_copies_and_hands_off_to_the_first_acquirer(self, plane):
        cluster = make_cluster(plane)
        owner = cluster.proxies[0]
        owner.begin_validation(OID, "t0")
        second = queued(3, "t3")
        owner.queues[OID] = RequesterList.from_snapshot(
            [queued(1, "t1", ObjectMode.READ), queued(2, "t2"), second], bk=0.5
        )
        copies = tap(cluster, 1, MessageType.OBJECT_HANDOFF)
        transfers = tap(cluster, 2, MessageType.OBJECT_HANDOFF)
        cluster.nodes[0].clock.advance_to(41)
        owner.release_object(OID, committed=True)
        # both leave in the releasing event, before anything is delivered
        assert not owner.owns(OID) and OID not in owner.queues
        cluster.run(until=0.5)

        (copy, _), = copies
        p = copy.payload
        assert (p["txid"], p["granted"], p["transferred"]) == ("t1", True, False)
        assert p["local_cl"] == 0 and p["owner_clock"] == 41
        assert "queue" not in p and "bk" not in p
        check_plane(plane, copy, factory=0)

        (handoff, _), = transfers
        p = handoff.payload
        assert (p["txid"], p["granted"], p["transferred"]) == ("t2", True, True)
        # local_cl is what is still queued behind the new owner
        assert p["local_cl"] == 1 and p["owner_clock"] == 41
        assert p["queue"] == [second] and p["bk"] == 0.5
        check_plane(plane, handoff, factory=0)

    def test_an_enqueued_acquirer_records_the_hand_offs_clock(self, plane):
        cluster = make_cluster(plane)
        cluster.proxies[0].begin_validation(OID, "t0")
        root = cluster.engines[1].begin()
        root.start_local_time -= 10.0   # long-elapsed: RTS parks it

        def requester():
            grant = yield from cluster.proxies[1].open_object(
                root, OID, ObjectMode.ACQUIRE
            )
            return grant

        def releaser():
            yield cluster.env.timeout(0.2)
            cluster.nodes[0].clock.advance_to(41)
            cluster.proxies[0].release_object(OID, committed=False)

        proc = cluster.spawn(requester())
        cluster.spawn(releaser())
        grant = cluster.env.run(until=proc)
        assert (grant.owner_clock, grant.local_cl, grant.served_by) == (41, 0, 0)
        obj = cluster.proxies[1].store[OID]
        assert obj.state is ObjectState.VALIDATING and obj.holder == root.task_id
        if plane == "off":
            assert obj.payload_src is None
        else:
            # the new owner keeps pointing at the factory: the bytes did
            # not move with the custody
            assert obj.payload_src == 0


def transfer_payload(txid="t-dead", version=4, queue=(), epoch=1, gen=0):
    return {
        "oid": "hot", "txid": txid, "granted": True, "transferred": True,
        "value": 99, "version": version, "epoch": epoch, "gen": gen,
        "queue": list(queue), "bk": 0.25,
        "local_cl": len(queue), "served_by": 0, "owner_clock": 0,
    }


def hand_off(cluster, payload, until):
    """Deliver ``payload`` to node 1 as a hand-off nobody waits for."""
    cluster.nodes[0].send(1, MessageType.OBJECT_HANDOFF, payload)
    cluster.run(until=until)


class TestWhatArrivesUnclaimed:
    """``take_unclaimed``: the hand-off else-branch, fault-free.

    Whether a transfer is installed is the custody rule alone
    (``_install_transferred``): its ``(gen, version, epoch)`` must be
    above the highest custody the node has accepted or let go.  A newer
    custody replaces a FREE copy; over a held copy the hold stays on
    it."""

    def test_duplicate_transferred_hand_off_is_dropped(self):
        cluster = make_cluster()
        seen = tap(cluster, 1, MessageType.OBJECT_HANDOFF)
        hand_off(cluster, transfer_payload(), until=0.5)
        first = cluster.proxies[1].store["hot"]
        assert (first.value, first.version, first.epoch) == (99, 4, 1)
        assert first.state is ObjectState.FREE
        hand_off(cluster, transfer_payload(), until=1.0)
        # the echo changed nothing and sent nothing (no second DIR_UPDATE)
        assert cluster.proxies[1].store["hot"] is first
        assert [sent for _msg, sent in seen] == [1, 0]

    def test_an_older_pair_is_dropped(self):
        cluster = make_cluster()
        seen = tap(cluster, 1, MessageType.OBJECT_HANDOFF)
        hand_off(cluster, transfer_payload(epoch=3, gen=1), until=0.5)
        first = cluster.proxies[1].store["hot"]
        # an earlier custody of the same version, an older version at any
        # epoch, and a copy from before the re-host at any version
        hand_off(cluster, transfer_payload(epoch=2, gen=1), until=1.0)
        hand_off(cluster, transfer_payload(version=3, epoch=9, gen=1), until=1.5)
        hand_off(cluster, transfer_payload(version=9, epoch=9), until=2.0)
        assert cluster.proxies[1].store["hot"] is first
        assert [sent for _msg, sent in seen] == [1, 0, 0, 0]

    def test_newer_transfer_replaces_a_free_copy(self):
        cluster = make_cluster()
        seen = tap(cluster, 1, MessageType.OBJECT_HANDOFF)
        hand_off(cluster, transfer_payload(epoch=3), until=0.5)
        newer = dict(transfer_payload(version=9, epoch=1), value=5)
        hand_off(cluster, newer, until=1.0)
        obj = cluster.proxies[1].store["hot"]
        assert (obj.value, obj.gen, obj.version, obj.epoch) == (5, 0, 9, 1)
        assert obj.state is ObjectState.FREE
        assert cluster.proxies[1].custody["hot"] == (0, 9, 1)
        # a re-hosted copy outranks it at a lower version
        hand_off(cluster, dict(transfer_payload(version=2, gen=1), value=6), until=1.5)
        obj = cluster.proxies[1].store["hot"]
        assert (obj.value, obj.gen, obj.version, obj.epoch) == (6, 1, 2, 1)
        assert cluster.proxies[1].custody["hot"] == (1, 2, 1)
        assert [sent for _msg, sent in seen] == [1, 1, 1]   # its DIR_UPDATE

    def test_newer_transfer_over_a_held_copy_keeps_the_hold(self):
        cluster = make_cluster()
        proxy = cluster.proxies[1]
        seen = tap(cluster, 1, MessageType.OBJECT_HANDOFF)
        hand_off(cluster, transfer_payload(), until=0.5)
        proxy.begin_validation("hot", "t-local")
        newer = dict(transfer_payload(epoch=2, queue=[queued(2, "t2")]), value=5)
        hand_off(cluster, newer, until=1.0)
        # the newer copy is installed, still held by the local root, and
        # not sent on: only its DIR_UPDATE left
        obj = proxy.store["hot"]
        assert (obj.value, obj.epoch) == (5, 2)
        assert obj.state is ObjectState.VALIDATING and obj.holder == "t-local"
        assert [sent for _msg, sent in seen] == [1, 1]
        assert [r.txid for r in proxy.queues["hot"]] == ["t2"]
        # the holder's abort releases it to the queue that came with it
        proxy.release_object("hot", committed=False)
        cluster.run(until=1.5)
        assert not proxy.owns("hot") and cluster.proxies[2].owns("hot")

    def test_transfer_for_a_vanished_waiter_moves_on_in_the_same_event(self):
        cluster = make_cluster()
        waiter = cluster.env.event()
        cluster.proxies[2]._waiters[("t2", "hot")] = waiter
        seen = tap(cluster, 1, MessageType.OBJECT_HANDOFF)
        hand_off(
            cluster, transfer_payload(queue=[queued(2, "t2"), queued(3, "t3")]),
            until=0.5,
        )
        # installed, registered (DIR_UPDATE) and forwarded inside the one
        # handler call: node 1 never holds it across an event boundary
        assert [sent for _msg, sent in seen] == [2]
        assert not cluster.proxies[1].owns("hot")
        # t2's Open_Object gets the next custody, with the rest of the queue
        assert waiter.triggered
        p = waiter.value
        assert (p["value"], p["transferred"], p["epoch"]) == (99, True, 2)
        assert [r.txid for r in p["queue"]] == ["t3"]

    def test_read_hand_off_with_no_waiter_is_dropped(self):
        cluster = make_cluster()
        seen = tap(cluster, 1, MessageType.OBJECT_HANDOFF)
        hand_off(cluster, dict(transfer_payload(), transferred=False), until=0.5)
        assert [sent for _msg, sent in seen] == [0]
        assert not cluster.proxies[1].owns("hot")


def fault_cluster(plane="off"):
    """A recovery-enabled cluster whose calls wait 0.5 s per attempt."""
    cluster = make_cluster(plane, faults=FaultConfig(enabled=True))
    for client in cluster.rpc_clients:
        client.policy = RetryPolicy(timeout=0.5, backoff_cap=0.5)
    return cluster


class TestUnderRecovery:
    """The same receiver behind a late ``RETRIEVE_RESPONSE``, and the
    re-grant memory in the not-owner branch (``faults.enabled``)."""

    def late_response(self, cluster, payload):
        # a reply whose RPC waiter is gone reaches the type's handler
        cluster.nodes[0].send(
            1, MessageType.RETRIEVE_RESPONSE, payload, reply_to=10**9
        )
        cluster.run(until=cluster.env.now + 0.2)

    def test_late_transfer_for_an_object_in_the_store_is_dropped(self):
        """A duplicate of the transfer that installed a copy a local root
        is validating leaves that copy as it is (it used to replace it,
        and the next release sent it away from under the validator)."""
        cluster = fault_cluster()
        proxy = cluster.proxies[1]
        seen = tap(cluster, 1, MessageType.RETRIEVE_RESPONSE)
        self.late_response(cluster, transfer_payload())
        held = proxy.store["hot"]
        proxy.begin_validation("hot", "t-local")
        self.late_response(cluster, transfer_payload(queue=[queued(2, "t2")]))
        assert proxy.store["hot"] is held
        assert held.state is ObjectState.VALIDATING and held.holder == "t-local"
        assert "hot" not in proxy.queues
        assert [sent for _msg, sent in seen] == [1, 0]

    def test_regrant_after_pass_on_is_dropped(self):
        """Node 1 took a transfer and passed it on; the same transfer,
        re-sent, is dropped although node 1's store is empty."""
        cluster = fault_cluster()
        proxy = cluster.proxies[1]
        seen = tap(cluster, 1, MessageType.RETRIEVE_RESPONSE)
        payload = transfer_payload(queue=[queued(2, "t2")])
        self.late_response(cluster, payload)
        assert not proxy.owns("hot") and cluster.proxies[2].owns("hot")
        self.late_response(cluster, payload)
        assert [sent for _msg, sent in seen] == [2, 0]   # no DIR_UPDATE
        assert not proxy.owns("hot")
        # a waiting requester's grant is refused the same way, and a hint
        # naming its sender goes
        proxy.owner_hints.put("hot", 0)
        root = cluster.engines[1].begin()
        assert proxy._absorb_grant(root, "hot", ObjectMode.ACQUIRE, payload, None) is None
        assert not proxy.owns("hot") and proxy.owner_hints.owner("hot") is None

    def test_a_refused_regrant_chases_on_to_the_owner(self):
        """The requester of a lost transfer took that custody anyway (a
        hand-off) and passed it on; its retry to the old owner is
        answered from the re-grant memory, refused, and the chase finds
        the node the copy went to."""
        cluster = fault_cluster()
        root = cluster.engines[1].begin()
        lost = retrieve(cluster, 1, ObjectMode.ACQUIRE, txid=root.task_id)
        assert (lost.payload["version"], lost.payload["epoch"]) == (0, 1)
        cluster.nodes[3].send(
            1, MessageType.OBJECT_HANDOFF, dict(lost.payload, queue=[queued(2, "t2")])
        )
        cluster.run(until=cluster.env.now + 0.5)
        assert cluster.proxies[2].store[OID].epoch == 2
        cluster.proxies[1].owner_hints.put(OID, 0)   # the retry's address

        def acquire():
            grant = yield from cluster.proxies[1].open_object(
                root, OID, ObjectMode.ACQUIRE
            )
            return grant

        grant = cluster.env.run(until=cluster.spawn(acquire()))
        assert (grant.value, grant.version, grant.served_by) == (7, 0, 2)
        obj = cluster.proxies[1].store[OID]
        assert obj.epoch == 3 and obj.holder == root.task_id
        assert not cluster.proxies[2].owns(OID)

    def test_late_transfer_not_in_the_store_is_installed_and_forwarded(self):
        cluster = fault_cluster()
        waiter = cluster.env.event()
        cluster.proxies[2]._waiters[("t2", "hot")] = waiter
        seen = tap(cluster, 1, MessageType.RETRIEVE_RESPONSE)
        self.late_response(cluster, transfer_payload(queue=[queued(2, "t2")]))
        assert [sent for _msg, sent in seen] == [2]   # DIR_UPDATE + hand-off
        assert not cluster.proxies[1].owns("hot")
        assert waiter.triggered and waiter.value["transferred"]

    def test_late_copy_or_rejection_is_dropped(self):
        cluster = fault_cluster()
        seen = tap(cluster, 1, MessageType.RETRIEVE_RESPONSE)
        self.late_response(cluster, dict(transfer_payload(), transferred=False))
        self.late_response(cluster, {"oid": "hot", "granted": False})
        assert [sent for _msg, sent in seen] == [0, 0]
        assert not cluster.proxies[1].owns("hot")

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_retry_is_regranted_from_the_memory_and_refreshes_the_envelope_clock(self, plane):
        cluster = fault_cluster(plane)
        memory = cluster.proxies[0].recovery.granted
        cluster.nodes[0].clock.advance_to(5)
        first = retrieve(cluster, 1, ObjectMode.ACQUIRE, txid="root1")
        assert first.payload["transferred"] and not cluster.proxies[0].owns(OID)
        sent = memory[OID]
        assert (sent.requester, sent.txid) == (1, "root1")

        # a different transaction, and the same txid from a different
        # node, are not the requester the copy went to
        for src, txid in ((1, "root2"), (2, "root1")):
            other = retrieve(cluster, src, ObjectMode.ACQUIRE, txid=txid)
            assert other.payload["not_owner"] and not other.payload["granted"]
            assert other.payload["owner_hint"] == 1

        # the requester itself, asking again: the response was lost
        cluster.nodes[0].clock.advance_to(9)
        again = retrieve(cluster, 1, ObjectMode.ACQUIRE, txid="root1")
        assert again.payload == first.payload
        assert again.wire_bytes == first.wire_bytes == PLANES[plane][1]
        # the envelope's clock is current; the payload's is the original's
        assert (again.clock, again.payload["owner_clock"]) == (9, 5)
        assert memory[OID] is sent

    def test_custody_coming_back_clears_the_memory(self):
        cluster = fault_cluster()
        retrieve(cluster, 1, ObjectMode.ACQUIRE, txid="root1")
        assert OID in cluster.proxies[0].recovery.granted
        cluster.nodes[1].send(
            0, MessageType.OBJECT_HANDOFF, dict(transfer_payload(), oid=OID)
        )
        cluster.run(until=cluster.env.now + 0.2)
        assert cluster.proxies[0].owns(OID)
        assert cluster.proxies[0].recovery.granted == {}
