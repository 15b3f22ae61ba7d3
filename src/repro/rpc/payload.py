"""The payload plane: declared object sizes, byte sources, resolve caches.

The control plane (directory protocol, grants, validation, commit) keeps
carrying the *semantic* value of every object exactly as before — that is
what correctness rides on.  This module models the *bulk bytes* behind
each object as a separate plane, following ProxyStore's
pass-by-reference design:

* every object has a declared ``payload_size`` (``PayloadConfig.size``,
  or a workload / ``alloc`` override) registered here at bootstrap;
* one :class:`PayloadPlane` per cluster tracks, per object, which node
  holds the authoritative bytes for the current committed version (the
  proxy *factory*: the last committer);
* one :class:`NodePayload` per node is a resolved-bytes cache keyed by
  ``oid -> version fence``.  A fence bump (any committed write) makes
  every remote cache entry stale *by construction* — no invalidation
  traffic exists or is needed;
* in proxy mode, :meth:`NodePayload.resolve_payload` consults the cache
  when a transaction actually **reads** an object and issues a
  ``PAYLOAD_FETCH`` RPC on a miss; blind writes, commit-time
  acquisitions and validation-only paths never touch the plane, so they
  never pull bytes.

How bytes resolve is decided in this module only: the protocol core
(:class:`~repro.dstm.proxy.TMProxy`) holds its node's :class:`NodePayload`
only when the plane is on and calls :meth:`~NodePayload.stamp` where a
value leaves the node, :meth:`~NodePayload.adopt` where custody arrives.

In eager mode there are no fetches: grants and hand-offs bill the full
declared size inline (``Message.wire_bytes``), which is the pre-split
behaviour made visible — the baseline ``bench_payload`` compares
against.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.net.message import Message, MessageType
from repro.rpc.endpoint import ENDPOINTS
from repro.rpc.errors import PeerUnreachable

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids core<->rpc cycle)
    from repro.core.config import PayloadConfig
    from repro.rpc.client import RpcClient

_PAYLOAD_FETCH = ENDPOINTS.get("payload_fetch")

__all__ = ["NodePayload", "PayloadPlane"]


class NodePayload:
    """One node's resolved-bytes cache (oid -> version fence)."""

    __slots__ = (
        "plane", "node_id", "cache", "capacity",
        "hits", "misses", "fetches", "served", "refused",
        "client", "sanitizer",
    )

    def __init__(
        self, plane: "PayloadPlane", node_id: int, capacity: Optional[int]
    ) -> None:
        self.plane = plane
        self.node_id = node_id
        #: resolved bytes held here: oid -> the version fence they are
        #: valid at.  One entry per oid (bytes for an older fence are
        #: garbage the moment a newer fence exists).
        self.cache: "OrderedDict[str, int]" = OrderedDict()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: PAYLOAD_FETCH RPCs this node issued (client side)
        self.fetches = 0
        #: fetches this node answered with bytes (server side)
        self.served = 0
        #: fetches this node could not answer (fence mismatch)
        self.refused = 0
        #: this node's RPC client and the cluster's invariant sanitizer
        #: (or None), bound by :meth:`attach`
        self.client: Optional["RpcClient"] = None
        self.sanitizer: Optional[Any] = None

    def attach(self, client: "RpcClient", sanitizer: Optional[Any]) -> "NodePayload":
        """Bind to this node's RPC client and start serving
        ``PAYLOAD_FETCH`` (cluster bootstrap, payload plane on only)."""
        self.client = client
        self.sanitizer = sanitizer
        client.node.on(MessageType.PAYLOAD_FETCH, self._on_payload_fetch)
        return self

    def stamp(
        self, payload: Dict[str, Any], oid: str, payload_src: Optional[int]
    ) -> int:
        """A grant or hand-off carrying ``oid``'s value is about to leave
        this node in ``payload``; returns the bytes it ships.  Proxy mode
        advertises the byte factory instead of shipping the payload (the
        bulk bytes resolve lazily at the reader)."""
        if self.plane.proxy_mode:
            payload["psrc"] = payload_src
        return self.plane.grant_bytes(oid)

    def adopt(self, obj: Any, psrc: Optional[int]) -> None:
        """Custody of ``obj`` (a :class:`~repro.dstm.objects.VersionedObject`)
        just migrated to this node with a message advertising ``psrc``."""
        if self.plane.proxy_mode:
            # Ownership migrated; the bytes did not.  Keep pointing at
            # the factory until a commit materializes new bytes here.
            obj.payload_src = int(psrc) if psrc is not None else None
        else:
            # Eager mode: the payload rode the transfer inline.
            obj.payload_src = self.node_id
            self.plane.note_materialize(self.node_id, obj.oid, obj.version)

    def resolve_payload(
        self, oid: str, version: int, psrc: Optional[int]
    ) -> Generator[Any, Any, None]:
        """Materialise at this node the bytes behind a grant of ``oid`` at
        ``version`` advertising ``psrc`` (generator; ``yield from``).

        Proxy mode only — eager mode shipped the bytes with the grant.
        The resolved-bytes cache is keyed by the version fence, so a hit
        costs nothing and a fence bump (any committed write) misses by
        construction.  A miss fetches from the grant's advertised
        factory, falling back once to the plane's current source; if
        both refuse (the fence moved mid-flight) or the factory is
        unreachable under faults, the read proceeds without bytes — the
        semantic value is already in hand, and commit-time validation
        arbitrates staleness exactly as before.
        """
        plane = self.plane
        if not plane.proxy_mode:
            return
        hit = self.lookup(oid, version)
        client = self.client
        if client.tracer.wants("payload.fetch"):
            client.tracer.emit(
                client.env.now, "payload.fetch", oid,
                node=f"n{self.node_id}", hit=hit,
                bytes=0 if hit else plane.size_of(oid),
            )
        if hit:
            return
        src = psrc if psrc is not None else plane.source.get(oid)
        if src is None or src == self.node_id:
            # We are the factory (we committed these bytes, or the grant
            # predates the plane's bookkeeping): materialise locally.
            self.install(oid, version)
            return
        ok = yield from self._fetch_payload(oid, version, src)
        if not ok:
            alt = plane.source.get(oid)
            if alt is not None and alt not in (src, self.node_id):
                yield from self._fetch_payload(oid, version, alt)

    def _fetch_payload(
        self, oid: str, version: int, src: int
    ) -> Generator[Any, Any, bool]:
        self.fetches += 1
        try:
            reply = yield from self.client.call(
                src, _PAYLOAD_FETCH, {"oid": oid, "version": version}
            )
        except PeerUnreachable:
            return False
        p = reply.payload
        if p.get("ok"):
            self.install(oid, int(p["version"]))
            return True
        return False

    def _on_payload_fetch(self, msg: Message) -> None:
        """Serve bytes for ``(oid, version)`` from this node's resolved
        store.  Serves only at the exact requested fence — bytes for any
        other fence would be stale (or fabricated) the moment they land."""
        p = msg.payload
        oid: str = p["oid"]
        want = int(p["version"])
        node = self.client.node
        have = self.cache.get(oid)
        if have == want:
            if self.sanitizer is not None:
                self.sanitizer.check_payload_serve(
                    oid, want, node=self.node_id, now=node.env.now
                )
            size = self.plane.size_of(oid)
            self.served += 1
            self.plane.fetch_bytes += size
            node.reply(
                msg, MessageType.PAYLOAD_FETCH_REPLY,
                {"oid": oid, "ok": True, "version": want},
                wire_bytes=size,
            )
        else:
            self.refused += 1
            node.reply(
                msg, MessageType.PAYLOAD_FETCH_REPLY,
                {"oid": oid, "ok": False, "version": have},
            )

    # -- client side ----------------------------------------------------

    def lookup(self, oid: str, version: int) -> bool:
        """Cache probe at ``version``; counts the hit/miss."""
        hit = self.cache.get(oid) == version
        if hit:
            self.hits += 1
            self.cache.move_to_end(oid)
        else:
            self.misses += 1
        return hit

    def install(self, oid: str, version: int) -> None:
        """Record that this node now holds bytes for ``(oid, version)``."""
        stale = self.cache.get(oid)
        if stale is not None and stale > version:
            return  # never replace bytes with an older fence
        self.cache[oid] = version
        self.cache.move_to_end(oid)
        if self.capacity is not None and len(self.cache) > self.capacity:
            # Evict LRU-first, but authoritative copies are pinned:
            # dropping the only bytes of a current fence would orphan
            # the payload.  May overshoot capacity if everything is
            # pinned — correctness beats the bound.
            for victim in list(self.cache.keys()):
                if len(self.cache) <= self.capacity:
                    break
                if self.plane.source.get(victim) == self.node_id:
                    continue
                del self.cache[victim]

    def cache_version(self, oid: str) -> Optional[int]:
        return self.cache.get(oid)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fetches": self.fetches,
            "served": self.served,
            "refused": self.refused,
            "cached": len(self.cache),
        }


class PayloadPlane:
    """Cluster-wide payload bookkeeping (sizes, byte sources, caches)."""

    def __init__(self, config: "PayloadConfig", num_nodes: int) -> None:
        self.config = config
        self.num_nodes = num_nodes
        #: proxy mode moves ObjectProxy descriptors + lazy fetches;
        #: eager mode bills full payloads inline with grants/hand-offs
        self.proxy_mode = bool(config.proxy)
        self.default_size = int(config.size)
        #: declared payload bytes per oid
        self.sizes: Dict[str, int] = {}
        #: node holding the authoritative bytes of each oid's current
        #: committed fence (the last committer, or the bootstrap node)
        self.source: Dict[str, int] = {}
        #: bulk bytes shipped via PAYLOAD_FETCH replies (the out-of-band
        #: plane); subtracting from the network's payload-byte total
        #: leaves the bytes that rode control-plane grants/hand-offs
        self.fetch_bytes = 0
        self.nodes: Dict[int, NodePayload] = {
            n: NodePayload(self, n, config.cache_capacity)
            for n in range(num_nodes)
        }

    # -- bootstrap ------------------------------------------------------

    def register(
        self, oid: str, node: int, size: Optional[int] = None, version: int = 0
    ) -> None:
        """Declare ``oid``'s payload: ``size`` bytes, born at ``node``."""
        self.sizes[oid] = self.default_size if size is None else int(size)
        self.source[oid] = node
        self.nodes[node].install(oid, version)

    def size_of(self, oid: str) -> int:
        return self.sizes.get(oid, self.default_size)

    # -- plane transitions ---------------------------------------------

    def note_materialize(self, node: int, oid: str, version: int) -> None:
        """Bytes for ``(oid, version)`` just came into being at ``node``
        (a committed write, or an eager inline transfer).  The node
        becomes the factory for this fence."""
        self.source[oid] = node
        self.nodes[node].install(oid, version)

    def grant_bytes(self, oid: str) -> int:
        """Payload bytes a value-carrying grant/hand-off ships on the
        wire: the full declared size in eager mode, only the constant
        ObjectProxy descriptor in proxy mode."""
        if self.proxy_mode:
            return self.config.proxy_size
        return self.size_of(oid)

    # -- reporting ------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        """Cluster totals over every node's resolve cache."""
        out = {"hits": 0, "misses": 0, "fetches": 0, "served": 0, "refused": 0}
        for node in self.nodes.values():
            out["hits"] += node.hits
            out["misses"] += node.misses
            out["fetches"] += node.fetches
            out["served"] += node.served
            out["refused"] += node.refused
        return out

    def hit_rate(self) -> float:
        t = self.totals()
        probes = t["hits"] + t["misses"]
        return t["hits"] / probes if probes else 0.0

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            f"n{n}": node.stats() for n, node in sorted(self.nodes.items())
        }
