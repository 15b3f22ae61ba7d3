"""Recovery: how a copy that faults lost comes back.

Both sides of it live here, and the cluster builds them **only when
``faults.enabled``** — so always under a retry policy; a fault-free
cluster has none of this code, its handlers or its processes.

* :class:`NodeRecovery`, one per node (``proxy.recovery``), is the
  owner's side: the re-grant memory, the handlers for a
  ``RETRIEVE_RESPONSE`` whose RPC waiter is gone and for lease acks, the
  commit publish, and the heartbeat and orphan-sweep processes.  The
  protocol core (:class:`~repro.dstm.proxy.TMProxy`) calls out to it in
  three places — :meth:`~NodeRecovery.remember` where custody leaves a
  node, :meth:`~NodeRecovery.forget` where it arrives,
  :meth:`~NodeRecovery.regrant` when a request finds the node not the
  owner.
* :class:`HomeRecovery`, one per directory shard
  (``directory.recovery``), is the home's side: ownership leases, the
  lease reclaim, the custody fence on ``DIR_UPDATE``, the
  withdrawn-txid tombstones, and the ``COMMIT_PUBLISH`` /
  ``LEASE_RENEW`` / ``ORPHAN_RETURN`` endpoints.  The
  :class:`~repro.dstm.directory.DirectoryShard` calls out to it in three
  places — :meth:`~HomeRecovery.reclaim` before a read,
  :meth:`~HomeRecovery.fence` before an update registers,
  :meth:`~HomeRecovery.renew` / :meth:`~HomeRecovery.withdrew` after a
  registration or withdraw.

Every call made here is an :class:`repro.rpc.RpcClient` reply signal,
retried by the one retry path — ``Node.submit``'s resend chain under a
:class:`repro.rpc.RetryPolicy`.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.check.sanitize import validate_policy
from repro.dstm.objects import ObjectState, VersionedObject, home_node
from repro.net.message import Message, MessageType
from repro.rpc.endpoint import ENDPOINTS, serve
from repro.rpc.errors import PeerUnreachable

if TYPE_CHECKING:  # pragma: no cover - typing only (dstm never imports faults)
    from repro.core.metrics import MetricsCollector
    from repro.dstm.directory import DirectoryShard, DirEntry
    from repro.dstm.proxy import TMProxy

#: tests/rpc/test_policy.py pins the list: no second policy name
__all__ = ["HomeRecovery", "NodeRecovery", "validate_policy"]

#: withdrawn txids remembered per oid (a bounded ring)
_TOMBSTONES = 4

_COMMIT_PUBLISH = ENDPOINTS.get("commit_publish")
_ORPHAN_RETURN = ENDPOINTS.get("orphan_return")


class Transfer(NamedTuple):
    """The last ownership transfer a node sent for one oid: to which
    node and root txid, the payload and wire bytes as sent, and when
    (a re-send to a requester still asking refreshes it)."""

    requester: int
    txid: str
    payload: Dict[str, Any]
    wire_bytes: int
    at: float


class NodeRecovery:
    """One node's share of failure recovery; the cluster sets it as its
    proxy's ``recovery``."""

    def __init__(self, proxy: "TMProxy", lease_duration: float) -> None:
        self.proxy = proxy
        self.node = proxy.node
        self.env = proxy.env
        self.client = proxy.rpc_client
        self.lease_duration = float(lease_duration)
        #: the re-grant memory: a transferred grant or hand-off deletes
        #: the sender's copy before the message hits the wire, so if
        #: that message is dropped the copy exists nowhere but here.
        #: Entries leave when the object comes back or the orphan sweep
        #: hands them to the home.
        self.granted: Dict[str, Transfer] = {}
        self.node.on(MessageType.RETRIEVE_RESPONSE, self._on_late_retrieve_response)
        self.node.on(MessageType.LEASE_RENEW_ACK, self._on_lease_ack)

    def remember(
        self, oid: str, requester: int, txid: str,
        payload: Dict[str, Any], wire_bytes: int,
    ) -> None:
        """Custody of ``oid`` is leaving for ``requester`` in ``payload``."""
        self.granted[oid] = Transfer(
            requester, txid, dict(payload), wire_bytes, self.env.now
        )

    def forget(self, oid: str) -> None:
        """Custody of ``oid`` arrived (back) here."""
        self.granted.pop(oid, None)

    def lease_lapsed(self, registered_at: float) -> bool:
        """Whether a registration sent at simulated time ``registered_at``
        has outlived its lease by this node's clock: from then on its home
        may re-host the object, so the commit behind it must not install."""
        clock = self.node.clock
        return clock.wall_time(self.env.now) - clock.wall_time(registered_at) >= self.lease_duration

    def regrant(self, msg: Message) -> bool:
        """Answer a retrieve request for an object this node no longer
        holds from the memory, if it comes from the very requester the
        object was transferred to: the message carrying the single
        writable copy was lost.  The re-sent payload is the original,
        custody epoch included, so re-sending is idempotent by
        construction: a requester that already took that custody (and
        may have passed it on) drops it under the custody rule of
        :meth:`~repro.dstm.proxy.TMProxy._install_transferred`.  It also
        refreshes the age: the requester is alive, so the orphan sweep
        must not repatriate under it.
        """
        oid = msg.payload["oid"]
        sent = self.granted.get(oid)
        if sent is None or (sent.requester, sent.txid) != (msg.src, msg.payload["txid"]):
            return False
        self.granted[oid] = sent._replace(at=self.env.now)
        self.node.reply(
            msg, MessageType.RETRIEVE_RESPONSE, dict(sent.payload),
            wire_bytes=sent.wire_bytes,
        )
        return True

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
        (:meth:`~repro.rpc.RpcClient.post`).  If the home stays silent
        through every retry, the periodic heartbeat carries the same
        state as soon as it answers again."""
        self.client.post(
            home_node(obj.oid, self.proxy.num_nodes), _COMMIT_PUBLISH,
            {"oid": obj.oid, "gen": obj.gen, "version": obj.version, "value": obj.value},
        )

    def lease_heartbeat(
        self, interval: float, offset: float = 0.0
    ) -> Generator[Any, Any, None]:
        """Infinite heartbeat process: renew leases on every owned object.

        Fire-and-forget (the LEASE_RENEW_ACK handler absorbs answers), so
        a crashed or partitioned home costs nothing; ``offset`` staggers
        the per-node phases to avoid synchronized bursts.
        """
        if offset > 0.0:
            yield offset
        num = self.proxy.num_nodes
        while True:
            by_home: Dict[int, List[Tuple[str, int, int, Any]]] = {}
            for oid in sorted(self.proxy.store):
                obj = self.proxy.store[oid]
                by_home.setdefault(home_node(oid, num), []).append(
                    (oid, obj.gen, obj.version, obj.value)
                )
            for home, objects in sorted(by_home.items()):
                if home == self.node.node_id:
                    continue  # our own directory sees our copies directly
                self.node.send(home, MessageType.LEASE_RENEW, {"objects": objects})
            yield interval

    def orphan_sweep(
        self,
        interval: float,
        min_age: Optional[float] = None,
        offset: float = 0.0,
    ) -> Generator[Any, Any, None]:
        """Infinite sweep process: repatriate abandoned transferred copies.

        A transfer whose message was lost leaves the single writable copy
        existing only in :attr:`granted`.  Normally the requester's RPC
        retries pick it up; if the requester gave up (its root aborted
        with ``OWNER_FAILURE``) or crashed, the copy is orphaned —
        unreachable until the home's lease reclaim re-hosts it from a
        possibly older snapshot.  The sweep returns such copies to the
        home (``ORPHAN_RETURN``) *before* lease expiry, so the object
        comes back under its latest committed value.

        ``min_age`` gates repatriation: an entry younger than it may still
        be claimed by the requester's in-flight retries.  The default is
        the RPC policy's worst-case retry wait — by then the requester has
        provably given up (or will be served by the home's fenced copy).
        """
        if min_age is None:
            min_age = self.client.policy.worst_case_wait()
        if offset > 0.0:
            yield offset
        while True:
            yield interval
            yield from self._sweep_orphans(min_age)

    def _sweep_orphans(self, min_age: float) -> Generator[Any, Any, None]:
        now = self.env.now
        cache = self.proxy.owner_hints
        for oid in sorted(self.granted):
            sent = self.granted.get(oid)
            if sent is None or now - sent.at < min_age:
                continue
            if oid in self.proxy.store:
                # The object came home through another path (late
                # hand-off forwarding); the memory is just stale.
                self.granted.pop(oid, None)
                continue
            home = home_node(oid, self.proxy.num_nodes)
            try:
                reply = yield from self.client.call(
                    home, _ORPHAN_RETURN,
                    {
                        "oid": oid, "gen": sent.payload["gen"],
                        "version": int(sent.payload["version"]),
                        "value": sent.payload["value"],
                        "granted_to": sent.requester,
                    },
                )
            except PeerUnreachable:
                continue  # silent home: retry on the next sweep
            p = reply.payload
            if p.get("accepted") or p.get("fenced"):
                # Accepted: the home re-hosted the copy under a new
                # generation.  Fenced: the registry already moved past this
                # transfer (the requester registered after all, or a
                # reclaim won).  Either way re-granting from the memory
                # would resurrect a stale copy — drop it, unless a newer
                # transfer replaced the entry while this RPC was in flight.
                current = self.granted.get(oid)
                if current is not None and current.at == sent.at:
                    self.granted.pop(oid, None)
                if cache.owner(oid) == sent.requester:
                    cache.drop(oid)


class HomeRecovery:
    """One home's share of failure recovery; the cluster sets it as its
    directory shard's ``recovery``.

    A *lease* is the instant an entry's registered owner must have been
    heard from by (every registration, heartbeat and commit publish from
    it renews the lease).  An entry whose lease lapsed is *reclaimed* on
    the next read: the home re-hosts the object at its committed
    snapshot's version under the next custody generation ``gen`` (a
    re-host writes nothing: only commits mint versions).  The generation
    fences the failed owner: every home-side test of a copy compares
    ``(gen, version)``, and an older generation is stale whatever its
    version.
    """

    def __init__(
        self,
        directory: "DirectoryShard",
        lease_duration: float,
        reclaim_grace: float,
        proxy: "TMProxy",
        metrics: "MetricsCollector",
    ) -> None:
        self.directory = directory
        self.node = directory.node
        self.lease_duration = float(lease_duration)
        self.reclaim_grace = float(reclaim_grace)
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
        serve(self.node, "orphan_return", self._on_orphan_return)

    # -- the shard's call-outs ------------------------------------------------

    def renew(self, oid: str) -> None:
        """The registered owner of ``oid`` was just heard from."""
        self.leases[oid] = self.node.now_local + self.lease_duration

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

        Yes when a remote owner's lease has lapsed and the home has a
        snapshot to restore from.  When the registered version is ahead
        of the snapshot a commit was in flight at the crash; since
        registration precedes installation the snapshot is still the
        full committed state, but an extra ``reclaim_grace`` lets a live
        committer's retries land first.  Never while our own proxy holds
        a copy mid-validation: that local commit will either register
        (healing the entry) or release, and reclaiming under it would
        fork the object.
        """
        entry = self.directory.entry(oid)
        if entry is None or entry.owner == self.node.node_id or not entry.has_snapshot:
            return False
        now = self.node.now_local
        expires = self.leases.get(oid, math.inf)
        if now < expires:
            return False
        if entry.snapshot_version < entry.version and now < expires + self.reclaim_grace:
            return False
        local = self.proxy.store.get(oid)
        return local is None or local.state is ObjectState.FREE

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
        re-hosting if we were the registered owner): it is replaced, or
        readers keep serving a copy the registry has moved past.
        Home-hosted entries need no lease until ownership migrates again
        (the transfer registration re-arms it).
        """
        home = self.node.node_id
        entry.gen += 1
        if self.directory.sanitizer is not None:
            self.directory.sanitizer.note_rehost(home, oid, entry.gen, version)
        entry.owner = home
        entry.version = version
        entry.registered_by = None
        entry.has_snapshot = True
        entry.snapshot_version = version
        entry.snapshot_value = value
        self.leases.pop(oid, None)
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
        """Heartbeat from a proxy listing its owned objects.

        Renews leases and absorbs snapshots for entries the sender still
        owns in their generation; answers with the oids whose copy at the
        sender is *stale* (a re-host or competing commit moved the
        registry past it) so the sender can drop them — this is also how
        a restarted node resynchronises after a crash window.
        """
        stale: List[str] = []
        for oid, gen, version, value in msg.payload.get("objects", ()):
            entry = self.directory.entry(oid)
            if entry is None:
                continue
            if entry.owner == msg.src and gen == entry.gen:
                self.renew(oid)
                entry.note_snapshot(version, value)
            elif (gen, int(version)) < (entry.gen, entry.version):
                stale.append(oid)
        return {"stale": stale}

    def _on_orphan_return(self, msg: Message) -> Dict[str, Any]:
        """An old owner returns a transferred copy nobody came to claim.

        The sender granted an ownership transfer whose response was lost
        and whose requester never re-requested (gave up or crashed); the
        copy it holds is the object's latest committed state.  Accept it
        only while the sender is still the registered owner and the
        registry has not moved past the copy's ``(gen, version)`` — then
        re-host it here at its version under the next generation,
        exactly like a lease reclaim but from fresher state and without
        waiting out the lease.  Anything else answers ``fenced``: the
        registry has already moved on (the requester registered after
        all, or a re-host/competing commit won) and the sender must drop
        its idempotent re-grant cache or it would resurrect a stale copy.
        """
        p = msg.payload
        oid = p["oid"]
        version = int(p["version"])
        entry = self.directory.entry(oid)
        key = (p["gen"], version)
        if entry is None or entry.owner != msg.src or key < (entry.gen, entry.version):
            return {
                "oid": oid, "accepted": False, "fenced": True,
                "registered_owner": entry.owner if entry else None,
                "registered_version": entry.version if entry else None,
            }
        local = self.proxy.store.get(oid)
        if local is not None and local.state is not ObjectState.FREE:
            # Our own proxy is mid-validation on a copy of this object; a
            # live local commit will settle the entry.  Not fenced: the
            # sender keeps its cache and retries on a later sweep.
            return {"oid": oid, "accepted": False, "fenced": False}
        self._rehost(oid, entry, p["value"], version)
        self.metrics.orphan_returns.increment()
        tracer = self.directory.tracer
        if tracer.wants("fault.orphan_return"):
            tracer.emit(
                self.node.env.now, "fault.orphan_return", oid,
                old_owner=msg.src, version=version, gen=entry.gen,
            )
        return {"oid": oid, "accepted": True, "version": version}
