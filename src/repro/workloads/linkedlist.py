"""Sorted Linked-List set (§IV-A microbenchmark).

A classic STM stress test: the set is a singly linked list of cell
objects in ascending key order.  Every key in the (fixed) key space has a
pre-allocated cell object ``ll/cell{k}``; membership is defined by
*reachability* from the head pointer object ``ll/head``.  Traversals read
a chain of cells — long read sets whose length grows with the set — while
updates rewrite exactly the predecessor cell (and the spliced cell), the
access pattern that makes list sets conflict-heavy near the head.

Transactions:

* **contains(k)** (read): traverse from the head until ``>= k``.
* **add(k) / remove(k)** (write): a parent transaction with two
  closed-nested children — *locate* (traversal, read-only) and *splice*
  (pointer rewiring).  If the splice leg conflicts, the located position
  survives in the parent and only the splice retries.

Cell values are ``(key, next_key_or_None)`` tuples; the head object's
value is the first key (or None).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.core.cluster import Cluster
from repro.workloads.base import Op, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import TransactionHandle
    from repro.sim.rng import Stream

__all__ = ["LinkedListWorkload"]


def _cell_oid(prefix: str, key: int) -> str:
    return f"{prefix}/cell{key}"


def _locate(
    tx: TransactionHandle, prefix: str, key: int
) -> Generator[Any, Any, Tuple[Optional[int], Optional[int]]]:
    """Find (predecessor key, current key at/after position) for ``key``.

    Returns ``(pred, curr)`` where ``pred is None`` means the position is
    at the head and ``curr`` is the first key >= ``key`` (None at end).
    """
    pred: Optional[int] = None
    curr: Optional[int] = yield from tx.read(f"{prefix}/head")
    while curr is not None and curr < key:
        cell_key, nxt = yield from tx.read(_cell_oid(prefix, curr))
        assert cell_key == curr, "list corrupted: cell key mismatch"
        pred, curr = curr, nxt
    return pred, curr


def _splice_in(
    tx: TransactionHandle, prefix: str, key: int, pred: Optional[int], curr: Optional[int]
) -> Generator[Any, Any, None]:
    yield from tx.write(_cell_oid(prefix, key), (key, curr))
    if pred is None:
        yield from tx.write(f"{prefix}/head", key)
    else:
        yield from tx.write(_cell_oid(prefix, pred), (pred, key))


def _splice_out(
    tx: TransactionHandle, prefix: str, key: int, pred: Optional[int]
) -> Generator[Any, Any, None]:
    _, nxt = yield from tx.read(_cell_oid(prefix, key))
    if pred is None:
        yield from tx.write(f"{prefix}/head", nxt)
    else:
        yield from tx.write(_cell_oid(prefix, pred), (pred, nxt))


def ll_contains(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    _, curr = yield from _locate(tx, prefix, key)
    return curr == key


def ll_add(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    pred, curr = yield from tx.nested(_locate, prefix, key, profile="ll.locate")
    if curr == key:
        return False  # already present
    yield from tx.nested(_splice_in, prefix, key, pred, curr, profile="ll.splice")
    return True


def ll_remove(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    pred, curr = yield from tx.nested(_locate, prefix, key, profile="ll.locate")
    if curr != key:
        return False  # absent
    yield from tx.nested(_splice_out, prefix, key, pred, profile="ll.splice")
    return True


class LinkedListWorkload(Workload):
    """Sorted linked-list set over a fixed key space."""

    name = "ll"

    def __init__(
        self,
        read_fraction: float = 0.9,
        key_space: int = 24,
        initial_fill: float = 0.5,
        lists_per_cluster: int = 1,
        payload_size: Optional[int] = None,
    ) -> None:
        super().__init__(read_fraction, payload_size=payload_size)
        if key_space < 2:
            raise ValueError("need key_space >= 2")
        if not 0.0 <= initial_fill <= 1.0:
            raise ValueError("initial_fill must be in [0, 1]")
        self.key_space = key_space
        self.initial_fill = initial_fill
        self.lists_per_cluster = max(1, lists_per_cluster)
        self.prefixes: List[str] = []
        #: initial membership per prefix (oracle tests replay from this)
        self.initial_members: dict[str, List[int]] = {}

    def create_objects(self, cluster: Cluster, rng: Stream) -> None:
        for li in range(self.lists_per_cluster):
            prefix = f"ll{li}"
            self.prefixes.append(prefix)
            fill = int(round(self.key_space * self.initial_fill))
            members = sorted(
                int(k) for k in rng.choice(self.key_space, size=fill, replace=False)
            )
            self.initial_members[prefix] = list(members)
            next_of = {}
            for a, b in zip(members, members[1:]):
                next_of[a] = b
            if members:
                next_of[members[-1]] = None
            # Spread cells round-robin over nodes (the cluster's default).
            cluster.alloc(f"{prefix}/head", members[0] if members else None)
            member_set = set(members)
            for k in range(self.key_space):
                nxt = next_of.get(k) if k in member_set else None
                cluster.alloc(_cell_oid(prefix, k), (k, nxt))

    # ------------------------------------------------------------------

    def _pick(self, rng: Stream) -> Tuple[str, int]:
        prefix = self.prefixes[self.pick_key(rng, len(self.prefixes))]
        key = self.pick_key(rng, self.key_space)
        return prefix, key

    def make_write_op(self, node: int, rng: Stream) -> Op:
        prefix, key = self._pick(rng)
        if rng.random() < 0.5:
            return Op(ll_add, (prefix, key), "ll.add", is_read=False)
        return Op(ll_remove, (prefix, key), "ll.remove", is_read=False)

    def make_read_op(self, node: int, rng: Stream) -> Op:
        prefix, key = self._pick(rng)
        return Op(ll_contains, (prefix, key), "ll.contains", is_read=True)
