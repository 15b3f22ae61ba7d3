"""The Arrow distributed directory protocol (Demmer & Herlihy, DISC 1998).

Herlihy & Sun's dataflow D-STM model (the paper's §II) requires a
cache-coherence protocol that locates and moves an object's single
writable copy; their own work builds on tree-based protocols of exactly
this family (Arrow / Ballistic).  The main reproduction uses a
home-directory locator (simpler, and sufficient for both published CC
properties); this module provides a faithful Arrow implementation over
the same simulated network so the two location strategies can be compared
(ablation A9 in ``repro.analysis.ablations``).

Protocol sketch — distributed queuing over a spanning tree:

* every node keeps one **arrow** per object: a pointer to itself (it is
  the current tail of the object's waiting queue) or to the tree
  neighbour in whose subtree the tail lies;
* a **find** request travels along the arrows; every hop flips the
  traversed arrow back toward the requester (path reversal), so
  concurrent finds splice themselves into a distributed queue without any
  central coordination;
* when a find reaches a node whose arrow points to itself, that node is
  the queue tail: it records the requester as its **successor** and will
  forward the object there when it releases it.

The protocol's classic guarantees — every find terminates, each node has
at most one successor, concurrent finds serialise into a single queue —
are exercised by the property tests in
``tests/analysis/test_arrow.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import networkx as nx

from repro.net.message import Message, MessageType
from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim import Environment

__all__ = ["ArrowDirectory", "build_spanning_tree"]


def build_spanning_tree(topology: Topology) -> Dict[int, List[int]]:
    """Minimum spanning tree over the delay graph: node -> neighbours.

    Arrow's performance depends on the tree approximating the metric
    (finds pay tree-path delays), so the MST of the link-delay graph is
    the natural choice.
    """
    mst = nx.minimum_spanning_tree(topology.to_graph(), weight="weight")
    return {n: sorted(mst.neighbors(n)) for n in mst.nodes}


class ArrowDirectory:
    """Per-node Arrow protocol state for any number of objects.

    One instance per node; instances share the network's spanning tree.
    The object holder calls :meth:`create` (initial owner) and
    :meth:`release` (pass the object on); any node calls :meth:`find`
    to enqueue itself for ownership.
    """

    def __init__(
        self,
        node: Node,
        tree: Dict[int, List[int]],
        on_granted: Optional[Callable[[str, Any], None]] = None,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.tree = tree
        self.neighbors = tree[node.node_id]
        #: oid -> arrow: this node's id (tail here) or a tree neighbour
        self._arrow: Dict[str, int] = {}
        #: oid -> requester node recorded as our successor
        self._successor: Dict[str, Optional[int]] = {}
        #: oid -> are we currently holding the object?
        self._holding: Dict[str, bool] = {}
        #: oid -> we hold the object but no longer need it: the next find
        #: to reach us takes the token immediately
        self._idle: Dict[str, bool] = {}
        #: oid -> value travelling with an idle token
        self._idle_value: Dict[str, Any] = {}
        #: oid -> waiter events for grants delivered to this node
        self._waiters: Dict[str, Any] = {}
        #: app callback on grant (alternative to the waiter API)
        self.on_granted = on_granted
        #: instrumentation: find hops observed at this node
        self.find_hops_forwarded = 0

        node.on(MessageType.ARROW_FIND, self._on_find)
        node.on(MessageType.ARROW_TOKEN, self._on_token)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def create(self, oid: str, everyone: List["ArrowDirectory"], value: Any = None) -> None:
        """Initialise the object's arrows across the whole tree.

        Called once per object at bootstrap: this node holds the object;
        every other node's arrow points one tree hop toward it.
        """
        holder = self.node.node_id
        for peer in everyone:
            if peer.node.node_id == holder:
                peer._arrow[oid] = holder
                peer._holding[oid] = True
                peer._successor.setdefault(oid, None)
            else:
                peer._arrow[oid] = peer._next_hop_toward(holder)
                peer._holding[oid] = False
                peer._successor.setdefault(oid, None)

    def _next_hop_toward(self, target: int) -> int:
        """First hop on the unique tree path from this node to ``target``."""
        # BFS over the (small) tree; cached per (self, target) if hot.
        start = self.node.node_id
        visited = {start}
        frontier: List[Tuple[int, int]] = [(n, n) for n in self.neighbors]
        while frontier:
            nxt: List[Tuple[int, int]] = []
            for first_hop, at in frontier:
                if at == target:
                    return first_hop
                visited.add(at)
                for n in self.tree[at]:
                    if n not in visited:
                        nxt.append((first_hop, n))
            frontier = nxt
        raise ValueError(f"node {target} unreachable from {start} in tree")

    # ------------------------------------------------------------------
    # Requester API
    # ------------------------------------------------------------------

    def find(self, oid: str):
        """Enqueue this node for ownership of ``oid`` (generator).

        Returns when the object token arrives here.  Immediately returns
        if this node already holds the object.
        """
        if self._holding.get(oid):
            self._idle[oid] = False  # re-acquired our own idle token
            return
            yield  # pragma: no cover - generator shape
        waiter = self.env.event()
        self._waiters[oid] = waiter
        self._start_find(oid)
        payload = yield waiter
        return payload

    def _start_find(self, oid: str) -> None:
        target = self._arrow[oid]
        me = self.node.node_id
        # Path reversal at the origin: our arrow now points to ourselves —
        # we are the prospective tail.
        self._arrow[oid] = me
        if target == me:
            # We were the tail already (e.g. released earlier but the
            # token has not moved): treat as self-queue; nothing to send.
            self._successor[oid] = me
            return
        self.node.send(
            target, MessageType.ARROW_FIND,
            {"oid": oid, "origin": me},
        )

    def release(self, oid: str, value: Any = None) -> Optional[int]:
        """Give up the object.

        Forwards the token to the queued successor if one is already
        recorded; otherwise the object stays here *idle* — the next find
        to reach this node takes the token immediately (this covers the
        race where a find is still travelling the tree when its target
        releases).  Returns the node the token went to (None = kept).
        """
        if not self._holding.get(oid):
            raise ValueError(f"node {self.node.node_id} does not hold {oid}")
        succ = self._successor.get(oid)
        if succ is None or succ == self.node.node_id:
            self._successor[oid] = None
            self._idle[oid] = True
            self._idle_value[oid] = value
            return None  # nobody queued yet; hold the token idle
        self._holding[oid] = False
        self._idle[oid] = False
        self._successor[oid] = None
        self.node.send(
            succ, MessageType.ARROW_TOKEN, {"oid": oid, "value": value}
        )
        return succ

    def holds(self, oid: str) -> bool:
        return bool(self._holding.get(oid))

    def arrow_of(self, oid: str) -> int:
        return self._arrow[oid]

    def successor_of(self, oid: str) -> Optional[int]:
        return self._successor.get(oid)

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def _on_find(self, msg: Message) -> None:
        oid = msg.payload["oid"]
        origin = msg.payload["origin"]
        me = self.node.node_id
        old = self._arrow[oid]
        # Path reversal: the arrow now points back toward the requester
        # (the tree neighbour the message came from, or the origin itself
        # if adjacent — msg.src is always the previous hop).
        self._arrow[oid] = msg.src if msg.src in self.neighbors else self._next_hop_toward(origin)
        if old == me:
            # We were the tail.  If we hold the token idly, hand it over
            # right away; otherwise the requester becomes our successor.
            if self._holding.get(oid) and self._idle.get(oid):
                self._holding[oid] = False
                self._idle[oid] = False
                self.node.send(
                    origin, MessageType.ARROW_TOKEN,
                    {"oid": oid, "value": self._idle_value.pop(oid, None)},
                )
                return
            if self._successor.get(oid) not in (None, me):
                raise RuntimeError(
                    f"arrow invariant violated at node {me}: second successor"
                )
            self._successor[oid] = origin
        else:
            self.find_hops_forwarded += 1
            self.node.send(old, MessageType.ARROW_FIND,
                           {"oid": oid, "origin": origin})

    def _on_token(self, msg: Message) -> None:
        oid = msg.payload["oid"]
        self._holding[oid] = True
        waiter = self._waiters.pop(oid, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(msg.payload.get("value"))
        if self.on_granted is not None:
            self.on_granted(oid, msg.payload.get("value"))

    def __repr__(self) -> str:
        return (
            f"<ArrowDirectory node={self.node.node_id} "
            f"objects={len(self._arrow)}>"
        )
