"""Binary Search Tree set (§IV-A microbenchmark).

An (unbalanced) BST over a fixed key space; every key has a pre-allocated
node object ``bst/node{k}`` holding ``(present, left, right)`` where
left/right are child keys or None, plus a root pointer object
``bst/root``.  Lookups descend from the root (O(depth) reads); inserts
attach a leaf (one pointer write); deletes implement the full textbook
algorithm including the two-children case (splice in the in-order
successor), so structural conflicts around rotated/spliced regions are
real.

Write transactions nest *locate* (traversal) and *mutate* (pointer
surgery) children, like the linked list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.core.cluster import Cluster
from repro.workloads.base import Op, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import TransactionHandle
    from repro.sim.rng import Stream

__all__ = ["BstWorkload"]

#: node value: (present, left_key, right_key)
NodeVal = Tuple[bool, Optional[int], Optional[int]]


def _node_oid(prefix: str, key: int) -> str:
    return f"{prefix}/node{key}"


def _descend(
    tx: TransactionHandle, prefix: str, key: int
) -> Generator[Any, Any, Tuple[List[int], bool]]:
    """Walk from the root toward ``key``.

    Returns ``(path, found)``: ``path`` is the list of visited keys (last
    element is ``key`` itself when found, else the would-be parent leaf).
    """
    path: List[int] = []
    curr: Optional[int] = yield from tx.read(f"{prefix}/root")
    while curr is not None:
        path.append(curr)
        if curr == key:
            present, _l, _r = yield from tx.read(_node_oid(prefix, curr))
            return path, bool(present)
        _present, left, right = yield from tx.read(_node_oid(prefix, curr))
        curr = left if key < curr else right
    return path, False


def bst_contains(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    _path, found = yield from _descend(tx, prefix, key)
    return found


def _attach(
    tx: TransactionHandle, prefix: str, key: int, parent: Optional[int]
) -> Generator[Any, Any, None]:
    yield from tx.write(_node_oid(prefix, key), (True, None, None))
    if parent is None:
        yield from tx.write(f"{prefix}/root", key)
        return
    present, left, right = yield from tx.read(_node_oid(prefix, parent))
    if key < parent:
        yield from tx.write(_node_oid(prefix, parent), (present, key, right))
    else:
        yield from tx.write(_node_oid(prefix, parent), (present, left, key))


def bst_add(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    path, found = yield from tx.nested(_descend, prefix, key, profile="bst.locate")
    if found:
        return False
    if path and path[-1] == key:
        # Tombstoned node still wired into the tree: revive in place.
        def _revive(tx2: TransactionHandle) -> Generator[Any, Any, None]:
            _p, left, right = yield from tx2.read(_node_oid(prefix, key))
            yield from tx2.write(_node_oid(prefix, key), (True, left, right))
        yield from tx.nested(_revive, profile="bst.mutate")
        return True
    parent = path[-1] if path else None
    yield from tx.nested(_attach, prefix, key, parent, profile="bst.mutate")
    return True


def _splice_out(
    tx: TransactionHandle, prefix: str, key: int, parent: Optional[int]
) -> Generator[Any, Any, None]:
    """Textbook BST delete of ``key`` whose parent is ``parent``."""
    _present, left, right = yield from tx.read(_node_oid(prefix, key))

    if left is not None and right is not None:
        # Two children: tombstone in place.  Classic pointer-based BSTs
        # move the in-order successor node; with key-addressed objects
        # (node identity == key) that would change a node's key, so the
        # standard STM-set formulation keeps the node wired and marks it
        # absent.  bst_add revives tombstones in place.
        yield from tx.write(_node_oid(prefix, key), (False, left, right))
        return

    # Zero or one child: splice the child into the parent link.
    child = left if left is not None else right
    if parent is None:
        yield from tx.write(f"{prefix}/root", child)
    else:
        p_present, p_left, p_right = yield from tx.read(_node_oid(prefix, parent))
        if p_left == key:
            yield from tx.write(_node_oid(prefix, parent), (p_present, child, p_right))
        else:
            yield from tx.write(_node_oid(prefix, parent), (p_present, p_left, child))
    # Reset the detached node for future re-insertion.
    yield from tx.write(_node_oid(prefix, key), (False, None, None))


def bst_remove(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    path, found = yield from tx.nested(_descend, prefix, key, profile="bst.locate")
    if not found:
        return False
    parent = path[-2] if len(path) >= 2 else None
    yield from tx.nested(_splice_out, prefix, key, parent, profile="bst.mutate")
    return True


class BstWorkload(Workload):
    """Unbalanced BST set over a fixed key space."""

    name = "bst"

    def __init__(
        self,
        read_fraction: float = 0.9,
        key_space: int = 64,
        initial_fill: float = 0.5,
        payload_size: Optional[int] = None,
    ) -> None:
        super().__init__(read_fraction, payload_size=payload_size)
        if key_space < 2:
            raise ValueError("need key_space >= 2")
        self.key_space = key_space
        self.initial_fill = initial_fill
        self.prefix = "bst"

    def create_objects(self, cluster: Cluster, rng: Stream) -> None:
        members = [
            int(k) for k in rng.choice(
                self.key_space,
                size=max(1, int(self.key_space * self.initial_fill)),
                replace=False,
            )
        ]
        # Build the tree shape in plain Python, then materialise objects.
        vals: dict[int, List[Optional[int]]] = {}
        root: Optional[int] = None
        for k in members:
            if root is None:
                root = k
                vals[k] = [None, None]
                continue
            curr = root
            while True:
                left, right = vals[curr]
                if k < curr:
                    if left is None:
                        vals[curr][0] = k
                        vals[k] = [None, None]
                        break
                    curr = left
                else:
                    if right is None:
                        vals[curr][1] = k
                        vals[k] = [None, None]
                        break
                    curr = right
        cluster.alloc(f"{self.prefix}/root", root)
        member_set = set(members)
        for k in range(self.key_space):
            if k in member_set:
                left, right = vals[k]
                cluster.alloc(_node_oid(self.prefix, k), (True, left, right))
            else:
                cluster.alloc(_node_oid(self.prefix, k), (False, None, None))

    # ------------------------------------------------------------------

    def _key(self, rng: Stream) -> int:
        return self.pick_key(rng, self.key_space)

    def make_write_op(self, node: int, rng: Stream) -> Op:
        key = self._key(rng)
        if rng.random() < 0.5:
            return Op(bst_add, (self.prefix, key), "bst.add", is_read=False)
        return Op(bst_remove, (self.prefix, key), "bst.remove", is_read=False)

    def make_read_op(self, node: int, rng: Stream) -> Op:
        return Op(bst_contains, (self.prefix, self._key(rng)), "bst.contains", is_read=True)
