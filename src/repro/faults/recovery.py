"""Recovery: how a copy that faults lost comes back.

Both sides of it live here, and the cluster builds them **only when
``faults.enabled``** — so always under a retry policy; a fault-free
cluster has none of this code, its handlers or its processes.

* :class:`NodeRecovery`, one per node (``proxy.recovery``), is the
  owner's side: the re-grant memory, the handlers for a
  ``RETRIEVE_RESPONSE`` whose RPC waiter is gone and for lease acks, the
  commit publish, and the heartbeat process.  The
  protocol core (:class:`~repro.dstm.proxy.TMProxy`) calls out to it in
  three places — :meth:`~NodeRecovery.remember` where custody leaves a
  node, :meth:`~NodeRecovery.forget` where it arrives,
  :meth:`~NodeRecovery.regrant` when a request finds the node not the
  owner.
* :class:`HomeRecovery`, one per directory shard
  (``directory.recovery``), is the home's side: ownership leases, the
  lease reclaim, the custody fence on ``DIR_UPDATE``, the
  withdrawn-txid tombstones, and the ``COMMIT_PUBLISH`` /
  ``LEASE_RENEW`` endpoints.  The
  :class:`~repro.dstm.directory.DirectoryShard` calls out to it in three
  places — :meth:`~HomeRecovery.reclaim` before a read,
  :meth:`~HomeRecovery.fence` before an update registers,
  :meth:`~HomeRecovery.renew` / :meth:`~HomeRecovery.withdrew` after a
  registration or withdraw.

Every call made here is an :class:`repro.rpc.RpcClient` reply signal,
retried by the one retry path — ``Node.submit``'s resend chain under
:data:`RETRY_POLICY`.  The protocol's timing is the module constants
below, not configuration: one regime, which every fault sweep runs.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.dstm.objects import ObjectState, VersionedObject, home_node
from repro.net.message import Message, MessageType
from repro.rpc.endpoint import ENDPOINTS, serve
from repro.rpc.policy import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (dstm never imports faults)
    from repro.core.metrics import MetricsCollector
    from repro.dstm.directory import DirectoryShard, DirEntry
    from repro.dstm.proxy import TMProxy

__all__ = [
    "HomeRecovery",
    "LEASE_DURATION",
    "LEASE_RENEW_INTERVAL",
    "NESTED_RETRY_CAP",
    "NodeRecovery",
    "RECLAIM_GRACE",
    "RETRY_POLICY",
]

# -- the recovery protocol's timing (one regime; no sweep varies it) ---------
#: every fault-mode RPC: a 0.15 s first window (over one worst round trip
#: plus queueing), doubling per retry to a 2 s cap, 5 retries — 6.25 s
#: before a silent peer is given up on
RETRY_POLICY = RetryPolicy(timeout=0.15, max_retries=5, backoff_factor=2.0, backoff_cap=2.0)
#: how long a directory entry stays valid without a renewal
LEASE_DURATION = 0.8
#: the owner heartbeat period, well under LEASE_DURATION so a healthy
#: owner's lease never lapses between two heartbeats
LEASE_RENEW_INTERVAL = 0.25
#: extra wait before reclaiming an entry whose registered version is
#: ahead of its snapshot (a commit may be mid-flight)
RECLAIM_GRACE = 0.8
#: under faults a nested read can stay stale forever (a straggler
#: registration the next commit would heal never comes), so after this
#: many retries of one closed-nested child its abort escalates to the
#: root, whose attempts the executor bounds; without faults the cluster
#: passes no cap (the paper's unbounded nested retry)
NESTED_RETRY_CAP = 16

#: withdrawn txids remembered per oid (a bounded ring)
_TOMBSTONES = 4

_COMMIT_PUBLISH = ENDPOINTS.get("commit_publish")


class Transfer(NamedTuple):
    """The last ownership transfer a node sent for one oid: to which
    node and root txid, and the payload and wire bytes as sent."""

    requester: int
    txid: str
    payload: Dict[str, Any]
    wire_bytes: int


class NodeRecovery:
    """One node's share of failure recovery; the cluster sets it as its
    proxy's ``recovery``."""

    def __init__(self, proxy: "TMProxy", home: "HomeRecovery") -> None:
        self.proxy = proxy
        self.node = proxy.node
        self.env = proxy.env
        self.client = proxy.rpc_client
        #: this node's directory side, which leases the oids it homes
        self.home = home
        #: the re-grant memory: a transferred grant or hand-off deletes
        #: the sender's copy before the message hits the wire, so if
        #: that message is dropped the copy exists nowhere but here.
        #: Entries leave when the object comes back or is re-hosted here.
        self.granted: Dict[str, Transfer] = {}
        self.node.on(MessageType.RETRIEVE_RESPONSE, self._on_late_retrieve_response)
        self.node.on(MessageType.LEASE_RENEW_ACK, self._on_lease_ack)

    def remember(
        self, oid: str, requester: int, txid: str,
        payload: Dict[str, Any], wire_bytes: int,
    ) -> None:
        """Custody of ``oid`` is leaving for ``requester`` in ``payload``;
        if this node homes ``oid``, its own entry is leased from now on."""
        self.granted[oid] = Transfer(requester, txid, dict(payload), wire_bytes)
        self._renew_if_home(oid)

    def forget(self, oid: str) -> None:
        """Custody of ``oid`` arrived (back) here."""
        self.granted.pop(oid, None)

    def lease_lapsed(self, registered_at: float) -> bool:
        """Whether a registration sent at simulated time ``registered_at``
        has outlived its lease by this node's clock: from then on its home
        may re-host the object, so the commit behind it must not install."""
        clock = self.node.clock
        return clock.wall_time(self.env.now) - clock.wall_time(registered_at) >= LEASE_DURATION

    def regrant(self, msg: Message) -> bool:
        """Answer a retrieve request for an object this node no longer
        holds from the memory, if it comes from the very requester the
        object was transferred to: the message carrying the single
        writable copy was lost.  The re-sent payload is the original,
        custody epoch included, so re-sending is idempotent by
        construction: a requester that already took that custody (and
        may have passed it on) drops it under the custody rule of
        :meth:`~repro.dstm.proxy.TMProxy._install_transferred`.  The
        requester is alive, so the lease of an oid this node homes is
        re-armed.
        """
        oid = msg.payload["oid"]
        sent = self.granted.get(oid)
        if sent is None or (sent.requester, sent.txid) != (msg.src, msg.payload["txid"]):
            return False
        self._renew_if_home(oid)
        self.node.reply(
            msg, MessageType.RETRIEVE_RESPONSE, dict(sent.payload),
            wire_bytes=sent.wire_bytes,
        )
        return True

    def _renew_if_home(self, oid: str) -> None:
        if home_node(oid, self.proxy.num_nodes) == self.node.node_id:
            self.home.renew(oid)

    def _on_late_retrieve_response(self, msg: Message) -> None:
        """A RETRIEVE_RESPONSE whose RPC waiter is gone (timed out, or a
        duplicate of one already consumed).

        Snapshot grants and rejections are stale information and are
        dropped.  A *transfer* grant, however, carries the single
        writable copy — losing it would orphan the object until lease
        reclaim — so the proxy takes custody and immediately releases,
        serving any queue that travelled with it.
        """
        if msg.payload.get("granted"):
            self.proxy.take_unclaimed(msg.payload)

    def _on_lease_ack(self, msg: Message) -> None:
        """Heartbeat ack: the home says some of our copies are stale
        (a re-host or competing commit advanced past them)."""
        for oid in msg.payload.get("stale", ()):
            obj = self.proxy.store.get(oid)
            if obj is None or obj.state is not ObjectState.FREE:
                # Held copies are left to the custody fence: the commit
                # that holds them will be nacked and discard them itself.
                continue
            self.proxy.discard_object(oid)

    def publish_commit(self, obj: VersionedObject) -> None:
        """Sync a freshly committed copy's ``(gen, version, value)`` to
        the home's recovery snapshot: a call nobody waits on
        (:meth:`~repro.rpc.RpcClient.post`), retried under
        :data:`RETRY_POLICY` like any other."""
        self.client.post(
            home_node(obj.oid, self.proxy.num_nodes), _COMMIT_PUBLISH,
            {"oid": obj.oid, "gen": obj.gen, "version": obj.version, "value": obj.value},
        )

    def lease_heartbeat(self) -> Generator[Any, Any, None]:
        """Infinite heartbeat process: every :data:`LEASE_RENEW_INTERVAL`,
        list each held copy's ``(oid, gen, version)`` to its home, which
        renews the leases it grants and names the stale copies.

        Fire-and-forget (the LEASE_RENEW_ACK handler absorbs answers), so
        a crashed or partitioned home costs nothing.  The first beat is
        staggered by node id across one interval, so the nodes' renewals
        never burst onto the network together.
        """
        num = self.proxy.num_nodes
        yield LEASE_RENEW_INTERVAL * (self.node.node_id + 1) / (num + 1)
        while True:
            by_home: Dict[int, List[Tuple[str, int, int]]] = {}
            for oid in sorted(self.proxy.store):
                obj = self.proxy.store[oid]
                by_home.setdefault(home_node(oid, num), []).append(
                    (oid, obj.gen, obj.version)
                )
            for home, objects in sorted(by_home.items()):
                if home == self.node.node_id:
                    continue  # our own directory sees our copies directly
                self.node.send(home, MessageType.LEASE_RENEW, {"objects": objects})
            yield LEASE_RENEW_INTERVAL


class HomeRecovery:
    """One home's share of failure recovery; the cluster sets it as its
    directory shard's ``recovery``.

    A *lease* is the instant an entry's registered owner must have been
    heard from by (every registration, heartbeat and commit publish from
    it renews the lease); an entry the home owns, while its proxy has let
    the copy go (:meth:`NodeRecovery.remember`).  An entry whose lease
    lapsed is *reclaimed* on the next read: the home re-hosts the object
    at its committed snapshot's version under the next custody
    generation ``gen`` (a re-host writes nothing: only commits mint
    versions).  The generation fences the failed owner: every home-side
    test of a copy compares ``(gen, version)``, and an older generation
    is stale whatever its version.
    """

    def __init__(
        self,
        directory: "DirectoryShard",
        proxy: "TMProxy",
        metrics: "MetricsCollector",
    ) -> None:
        self.directory = directory
        self.node = directory.node
        #: the co-located proxy: re-hosted objects land in its store
        self.proxy = proxy
        self.metrics = metrics
        #: oid -> local-clock instant its owner's lease runs out; an oid
        #: with no lease (home-hosted since a re-host) is absent
        self.leases: Dict[str, float] = {}
        #: oid -> txids whose registration was withdrawn here: a late
        #: *duplicate* of the original registration must not resurrect it
        #: (it would wedge the registry ahead of every committed copy)
        self.withdrawn: Dict[str, List[str]] = {}
        serve(self.node, "commit_publish", self._on_commit_publish)
        serve(self.node, "lease_renew", self._on_lease_renew)

    # -- the shard's call-outs ------------------------------------------------

    def renew(self, oid: str) -> None:
        """The registered owner of ``oid`` was just heard from."""
        self.leases[oid] = self.node.now_local + LEASE_DURATION

    def withdrew(self, oid: str, txid: Optional[str]) -> None:
        """The shard honoured a withdraw by commit attempt ``txid``:
        tombstone the attempt, so a late duplicate of its registration
        stays dead, and renew the withdrawer's lease."""
        if txid is not None:
            dead = self.withdrawn.setdefault(oid, [])
            dead.append(txid)
            del dead[:-_TOMBSTONES]
        self.renew(oid)

    def fence(self, entry: "DirEntry", p: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The nack for a ``DIR_UPDATE`` that must not register over
        ``entry``, or None to let it through.

        A copy from before a re-host is stale whatever its version.  In
        the entry's generation, an ownership transfer (no version) carries
        its copy's committed version as ``value_version``; one the registry
        has moved past (a competing commit) is a resurrected stale copy.
        A commit registration must advance the version, or repeat the
        owner's own (an RPC retry after a lost ack); anything else was
        beaten by a competing committer.  A txid already withdrawn here is
        a network-duplicated copy of a registration the committer itself
        rolled back.
        """
        registered = (entry.gen, entry.version)
        version = p.get("version")
        if version is None:
            vv = p.get("value_version")
            stale = vv is not None and (p.get("gen", 0), int(vv)) < registered
        else:
            txid = p.get("txid")
            theirs = (p.get("gen", 0), int(version))
            stale = (
                theirs < registered
                or (theirs == registered and entry.owner != p["owner"])
                or (txid is not None and txid in self.withdrawn.get(p["oid"], ()))
            )
        if not stale:
            return None
        return {
            "oid": p["oid"], "ok": False,
            "registered_owner": entry.owner,
            "registered_version": entry.version,
        }

    def reclaimable(self, oid: str) -> bool:
        """Whether a read of ``oid`` now would reclaim it; acts on nothing.

        Yes when the owner's lease has lapsed and the home has a
        snapshot to restore from.  When the registered version is ahead
        of the snapshot a commit was in flight at the crash; since
        registration precedes installation the snapshot is still the
        full committed state, but an extra :data:`RECLAIM_GRACE` lets a live
        committer's retries land first.  Never while our own proxy holds
        the registered copy, or any copy mid-validation: that local
        commit will either register (healing the entry) or release, and
        reclaiming under it would fork the object.
        """
        entry = self.directory.entry(oid)
        if entry is None or not entry.has_snapshot:
            return False
        now = self.node.now_local
        expires = self.leases.get(oid, math.inf)
        if now < expires:
            return False
        if entry.snapshot_version < entry.version and now < expires + RECLAIM_GRACE:
            return False
        local = self.proxy.store.get(oid)
        return local is None or (
            entry.owner != self.node.node_id and local.state is ObjectState.FREE
        )

    def reclaim(self, oid: str) -> None:
        """Re-host ``oid`` from the home's snapshot if :meth:`reclaimable`."""
        if not self.reclaimable(oid):
            return
        entry = self.directory.entry(oid)
        assert entry is not None
        old_owner = entry.owner
        sanitizer = self.directory.sanitizer
        if sanitizer is not None:
            sanitizer.note_reclaim(
                self.node.node_id, oid, self.node.now_local,
                lease_expires_at=self.leases.get(oid, math.inf),
                has_snapshot=entry.has_snapshot,
            )
        self._rehost(oid, entry, entry.snapshot_value, entry.snapshot_version)
        self.metrics.lease_reclaims.increment()
        tracer = self.directory.tracer
        if tracer.wants("fault.reclaim"):
            tracer.emit(
                self.node.env.now, "fault.reclaim", oid,
                old_owner=old_owner, version=entry.version, gen=entry.gen,
            )

    def _rehost(self, oid: str, entry: "DirEntry", value: Any, version: int) -> None:
        """Make the home the owner of ``value`` at the committed
        ``version`` it restores, under the next custody generation: the
        one place a generation is minted.  The registry may step back (a
        registration that never installed is dropped).  A FREE copy
        already in our store is a stale leftover (we would not be
        re-hosting if we held the registered copy): it is replaced, or
        readers keep serving a copy the registry has moved past.  Our
        re-grant memory of the object goes too: it is of the fenced
        generation.
        Home-hosted entries need no lease until this node lets the copy
        go again (:meth:`NodeRecovery.remember` re-arms it).
        """
        home = self.node.node_id
        entry.gen += 1
        if self.directory.sanitizer is not None:
            self.directory.sanitizer.note_rehost(
                home, oid, entry.gen, version, now=self.node.env.now
            )
        entry.owner = home
        entry.version = version
        entry.registered_by = None
        entry.has_snapshot = True
        entry.snapshot_version = version
        entry.snapshot_value = value
        self.leases.pop(oid, None)
        self.proxy.recovery.forget(oid)
        self.proxy.store[oid] = VersionedObject(oid, value, version, gen=entry.gen)
        # A custody the home took: no transfer from before it may install
        # over it (TMProxy._install_transferred's rule).
        self.proxy.custody[oid] = (entry.gen, version, 0)
        self.proxy.owner_hints.put(oid, home)

    # -- the home's endpoints -------------------------------------------------

    def _on_commit_publish(self, msg: Message) -> Dict[str, Any]:
        """A committer synced its installed ``(version, value)`` to us.

        Sent (with retries) right after every fault-mode commit, so the
        home snapshot trails the committed state by at most one publish
        round trip — the window a lease reclaim could otherwise lose.
        One from before a re-host is stale and changes nothing.
        """
        p = msg.payload
        entry = self.directory.entry(p["oid"])
        if entry is not None and p["gen"] == entry.gen:
            entry.note_snapshot(p.get("version"), p.get("value"))
            if entry.owner == msg.src:
                self.renew(p["oid"])
        return {"oid": p["oid"], "ok": True}

    def _on_lease_renew(self, msg: Message) -> Dict[str, Any]:
        """Heartbeat from a proxy listing the copies it holds.

        Renews the lease of every entry the sender still owns in its
        generation; answers with the oids whose copy at the sender is
        *stale* (a re-host or competing commit moved the registry past
        it) so the sender can drop them — this is also how a restarted
        node resynchronises after a crash window.  A heartbeat writes no
        snapshot: the commit publish and the transfer registration
        already write every committed state.
        """
        stale: List[str] = []
        for oid, gen, version in msg.payload.get("objects", ()):
            entry = self.directory.entry(oid)
            if entry is None:
                continue
            if entry.owner == msg.src and gen == entry.gen:
                self.renew(oid)
            elif (gen, int(version)) < (entry.gen, entry.version):
                stale.append(oid)
        return {"stale": stale}
