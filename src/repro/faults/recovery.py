"""Recovery: how a copy that faults lost comes back.

One :class:`NodeRecovery` per node holds the owner's side of it: the
re-grant memory, the handlers for a ``RETRIEVE_RESPONSE`` whose RPC
waiter is gone and for lease acks, the commit publish, and the
heartbeat and orphan-sweep processes.  The cluster builds it **only
when ``faults.enabled``** — so always under a retry policy; the
protocol core (:class:`~repro.dstm.proxy.TMProxy`) calls out to it in
three places — :meth:`~NodeRecovery.remember` where custody leaves a
node, :meth:`~NodeRecovery.forget` where it arrives,
:meth:`~NodeRecovery.regrant` when a request finds the node not the
owner — and a fault-free cluster has none of this code, its handlers or
its processes.  The home's side (leases, reclaim, fences,
``ORPHAN_RETURN``) is :class:`~repro.dstm.directory.DirectoryShard`'s.
Every call made here is an :class:`repro.rpc.RpcClient` reply event,
retried by the one retry path — ``Node.submit``'s resend chain under an
:class:`RpcPolicy`, the class :class:`repro.rpc.RetryPolicy` re-exported
under its historic name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, NamedTuple, Optional, Tuple

from repro.check.sanitize import validate_policy
from repro.dstm.objects import ObjectState, home_node
from repro.net.message import Message, MessageType
from repro.rpc.endpoint import ENDPOINTS
from repro.rpc.errors import PeerUnreachable
from repro.rpc.policy import RetryPolicy as RpcPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (dstm never imports faults)
    from repro.dstm.proxy import TMProxy

#: tests/rpc/test_policy.py pins the list: one policy class, no second
__all__ = ["NodeRecovery", "RpcPolicy", "validate_policy"]

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

    def __init__(self, proxy: "TMProxy") -> None:
        self.proxy = proxy
        self.node = proxy.node
        self.env = proxy.env
        self.client = proxy.rpc_client
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

    def regrant(self, msg: Message) -> bool:
        """Answer a retrieve request for an object this node no longer
        holds from the memory, if it comes from the very requester the
        object was transferred to: the message carrying the single
        writable copy was lost.  Re-sending is idempotent (the requester
        drops duplicates of a transfer it already absorbed) and
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
        (a lease reclaim or competing commit advanced past them)."""
        for oid in msg.payload.get("stale", ()):
            obj = self.proxy.store.get(oid)
            if obj is None or obj.state is not ObjectState.FREE:
                # Held copies are left to the version fence: the commit
                # that holds them will be nacked and discard them itself.
                continue
            self.proxy.discard_object(oid)

    def publish_commit(self, oid: str, version: int, value: Any) -> None:
        """Sync a freshly committed ``(version, value)`` to the home's
        recovery snapshot: a call nobody waits on
        (:meth:`~repro.rpc.RpcClient.post`).  If the home stays silent
        through every retry, the periodic heartbeat carries the same
        state as soon as it answers again."""
        self.client.post(
            home_node(oid, self.node.network.num_nodes), _COMMIT_PUBLISH,
            {"oid": oid, "version": int(version), "value": value},
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
            yield self.env.timeout(offset)
        num = self.node.network.num_nodes
        while True:
            by_home: Dict[int, List[Tuple[str, int, Any]]] = {}
            for oid in sorted(self.proxy.store):
                obj = self.proxy.store[oid]
                by_home.setdefault(home_node(oid, num), []).append(
                    (oid, obj.version, obj.value)
                )
            for home, objects in sorted(by_home.items()):
                if home == self.node.node_id:
                    continue  # our own directory sees our copies directly
                self.node.send(home, MessageType.LEASE_RENEW, {"objects": objects})
            yield self.env.timeout(interval)

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
            yield self.env.timeout(offset)
        while True:
            yield self.env.timeout(interval)
            yield from self._sweep_orphans(min_age)

    def _sweep_orphans(self, min_age: float) -> Generator[Any, Any, None]:
        now = self.env.now
        hints = self.proxy.owner_hints
        for oid in sorted(self.granted):
            sent = self.granted.get(oid)
            if sent is None or now - sent.at < min_age:
                continue
            if oid in self.proxy.store:
                # The object came home through another path (late
                # hand-off forwarding); the memory is just stale.
                self.granted.pop(oid, None)
                continue
            home = home_node(oid, self.node.network.num_nodes)
            try:
                reply = yield from self.client.call(
                    home, _ORPHAN_RETURN,
                    {
                        "oid": oid,
                        "version": int(sent.payload["version"]),
                        "value": sent.payload["value"],
                        "granted_to": sent.requester,
                    },
                )
            except PeerUnreachable:
                continue  # silent home: retry on the next sweep
            p = reply.payload
            if p.get("accepted") or p.get("fenced"):
                # Accepted: the home re-hosted the copy under a fenced
                # version.  Fenced: the registry already moved past this
                # transfer (the requester registered after all, or a
                # reclaim won).  Either way re-granting from the memory
                # would resurrect a stale copy — drop it, unless a newer
                # transfer replaced the entry while this RPC was in flight.
                current = self.granted.get(oid)
                if current is not None and current.at == sent.at:
                    self.granted.pop(oid, None)
                if hints.get(oid) == sent.requester:
                    hints.pop(oid, None)
