"""Red/Black Tree set (§IV-A microbenchmark).

A balanced search tree over a fixed key space; node objects
``rb/node{k}`` hold ``(present, color, left, right)`` and ``rb/root``
holds the root key.  Insertion is the *functional* red-black insert
(Okasaki, JFP 1999): descend, attach a red leaf, and restructure red-red
violations on the way back up by rewriting the 2-3 nodes involved in each
of the four classic rotation cases.  This maintains the red-black
invariants (validated by the property tests) without parent pointers —
the natural formulation when nodes are key-addressed shared objects.

Deletion tombstones the node in place (``present = False``); insertion
revives tombstones.  Structural deletions would require the full
delete-fixup cascade whose transactional footprint dwarfs everything else
in the benchmark; the STM-set literature (and STAMP's own usage, where
the trees mostly grow) commonly uses the tombstone formulation, and it
keeps the balance invariants intact by construction.

Because rebalancing rewrites several interior nodes, RB-Tree write
transactions have markedly larger write sets than BST/Linked-List —
matching the paper's relative throughput ordering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Tuple

from repro.core.cluster import Cluster
from repro.workloads.base import Op, Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import TransactionHandle
    from repro.sim.rng import Stream

__all__ = ["RbTreeWorkload"]

RED = "R"
BLACK = "B"

#: node value: (present, color, left_key, right_key)
NodeVal = Tuple[bool, str, Optional[int], Optional[int]]


def _node_oid(prefix: str, key: int) -> str:
    return f"{prefix}/node{key}"


def _read_node(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, NodeVal]:
    val = yield from tx.read(_node_oid(prefix, key))
    return val


def _write_node(
    tx: TransactionHandle, prefix: str, key: int, val: NodeVal
) -> Generator[Any, Any, None]:
    yield from tx.write(_node_oid(prefix, key), val)


def rb_contains(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    curr: Optional[int] = yield from tx.read(f"{prefix}/root")
    while curr is not None:
        present, _color, left, right = yield from _read_node(tx, prefix, curr)
        if curr == key:
            return bool(present)
        curr = left if key < curr else right
    return False


def _is_red(tx: TransactionHandle, prefix: str, key: Optional[int]) -> Generator[Any, Any, bool]:
    if key is None:
        return False
    _p, color, _l, _r = yield from _read_node(tx, prefix, key)
    return color == RED


def _balance(tx: TransactionHandle, prefix: str, node: int) -> Generator[Any, Any, int]:
    """Okasaki's balance: fix a red-red violation under a black ``node``.

    Returns the key now rooting this subtree (changes when a rotation
    promotes a child).
    """
    present, color, left, right = yield from _read_node(tx, prefix, node)
    if color != BLACK:
        return node

    # Case analysis: find a red child with a red child of its own.
    if left is not None:
        lp, lc, ll, lr = yield from _read_node(tx, prefix, left)
        if lc == RED:
            if ll is not None and (yield from _is_red(tx, prefix, ll)):
                # left-left: rotate right at node; left becomes the red
                # subtree root with black children (Okasaki case 1).
                llp, _llc, lll, llr = yield from _read_node(tx, prefix, ll)
                yield from _write_node(tx, prefix, ll, (llp, BLACK, lll, llr))
                yield from _write_node(tx, prefix, node, (present, BLACK, lr, right))
                yield from _write_node(tx, prefix, left, (lp, RED, ll, node))
                return left
            if lr is not None and (yield from _is_red(tx, prefix, lr)):
                # left-right: double rotation, lr becomes the subtree root
                lrp, _lrc, lrl, lrr = yield from _read_node(tx, prefix, lr)
                yield from _write_node(tx, prefix, left, (lp, BLACK, ll, lrl))
                yield from _write_node(tx, prefix, node, (present, BLACK, lrr, right))
                yield from _write_node(tx, prefix, lr, (lrp, RED, left, node))
                return lr
    if right is not None:
        rp, rc, rl, rr = yield from _read_node(tx, prefix, right)
        if rc == RED:
            if rr is not None and (yield from _is_red(tx, prefix, rr)):
                # right-right: rotate left at node
                rrp, _rrc, rrl, rrr = yield from _read_node(tx, prefix, rr)
                yield from _write_node(tx, prefix, rr, (rrp, BLACK, rrl, rrr))
                yield from _write_node(tx, prefix, node, (present, BLACK, left, rl))
                yield from _write_node(tx, prefix, right, (rp, RED, node, rr))
                return right
            if rl is not None and (yield from _is_red(tx, prefix, rl)):
                # right-left: double rotation, rl becomes the subtree root
                rlp, _rlc, rll, rlr = yield from _read_node(tx, prefix, rl)
                yield from _write_node(tx, prefix, node, (present, BLACK, left, rll))
                yield from _write_node(tx, prefix, right, (rp, BLACK, rlr, rr))
                yield from _write_node(tx, prefix, rl, (rlp, RED, node, right))
                return rl
    return node


def _insert_into(
    tx: TransactionHandle, prefix: str, key: int, curr: Optional[int]
) -> Generator[Any, Any, Tuple[int, bool]]:
    """Recursive functional insert; returns (subtree root key, inserted?)."""
    if curr is None:
        yield from _write_node(tx, prefix, key, (True, RED, None, None))
        return key, True

    present, color, left, right = yield from _read_node(tx, prefix, curr)
    if key == curr:
        if present:
            return curr, False
        yield from _write_node(tx, prefix, curr, (True, color, left, right))
        return curr, True  # tombstone revival: structure unchanged

    if key < curr:
        new_left, inserted = yield from _insert_into(tx, prefix, key, left)
        if new_left != left:
            yield from _write_node(tx, prefix, curr, (present, color, new_left, right))
    else:
        new_right, inserted = yield from _insert_into(tx, prefix, key, right)
        if new_right != right:
            yield from _write_node(tx, prefix, curr, (present, color, left, new_right))
    if not inserted:
        return curr, False
    new_root = yield from _balance(tx, prefix, curr)
    return new_root, True


def _do_insert(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    root: Optional[int] = yield from tx.read(f"{prefix}/root")
    new_root, inserted = yield from _insert_into(tx, prefix, key, root)
    if not inserted:
        return False
    if new_root != root:
        yield from tx.write(f"{prefix}/root", new_root)
    # The root is always black.
    present, color, left, right = yield from _read_node(tx, prefix, new_root)
    if color != BLACK:
        yield from _write_node(tx, prefix, new_root, (present, BLACK, left, right))
    return True


def _do_remove(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    """Tombstone delete: locate and mark absent (structure preserved)."""
    curr: Optional[int] = yield from tx.read(f"{prefix}/root")
    while curr is not None:
        present, color, left, right = yield from _read_node(tx, prefix, curr)
        if curr == key:
            if not present:
                return False
            yield from _write_node(tx, prefix, curr, (False, color, left, right))
            return True
        curr = left if key < curr else right
    return False


def rb_add(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    """Parent: nested locate-check, then nested insert-with-rebalance."""
    found = yield from tx.nested(rb_contains, prefix, key, profile="rb.locate")
    if found:
        return False
    result = yield from tx.nested(_do_insert, prefix, key, profile="rb.mutate")
    return result


def rb_remove(tx: TransactionHandle, prefix: str, key: int) -> Generator[Any, Any, bool]:
    found = yield from tx.nested(rb_contains, prefix, key, profile="rb.locate")
    if not found:
        return False
    result = yield from tx.nested(_do_remove, prefix, key, profile="rb.mutate")
    return result


class RbTreeWorkload(Workload):
    """Red/black tree set over a fixed key space."""

    name = "rbtree"

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
        self.prefix = "rb"

    def create_objects(self, cluster: Cluster, rng: Stream) -> None:
        """Materialise an initial tree built with the same functional
        insert (run in plain Python against a dict)."""
        nodes: dict[int, NodeVal] = {}
        root: Optional[int] = None

        def is_red(k: Optional[int]) -> bool:
            return k is not None and nodes[k][1] == RED

        def balance(k: int) -> int:
            present, color, left, right = nodes[k]
            if color != BLACK:
                return k
            if left is not None and nodes[left][1] == RED:
                lp, _lc, ll, lr = nodes[left]
                if is_red(ll):
                    llp, _llc, lll, llr = nodes[ll]
                    nodes[ll] = (llp, BLACK, lll, llr)
                    nodes[k] = (present, BLACK, lr, right)
                    nodes[left] = (lp, RED, ll, k)
                    return left
                if is_red(lr):
                    lrp, _lrc, lrl, lrr = nodes[lr]
                    nodes[left] = (lp, BLACK, ll, lrl)
                    nodes[k] = (present, BLACK, lrr, right)
                    nodes[lr] = (lrp, RED, left, k)
                    return lr
            if right is not None and nodes[right][1] == RED:
                rp, _rc, rl, rr = nodes[right]
                if is_red(rr):
                    rrp, _rrc, rrl, rrr = nodes[rr]
                    nodes[rr] = (rrp, BLACK, rrl, rrr)
                    nodes[k] = (present, BLACK, left, rl)
                    nodes[right] = (rp, RED, k, rr)
                    return right
                if is_red(rl):
                    rlp, _rlc, rll, rlr = nodes[rl]
                    nodes[k] = (present, BLACK, left, rll)
                    nodes[right] = (rp, BLACK, rlr, rr)
                    nodes[rl] = (rlp, RED, k, right)
                    return rl
            return k

        def insert(key: int, curr: Optional[int]) -> int:
            if curr is None:
                nodes[key] = (True, RED, None, None)
                return key
            present, color, left, right = nodes[curr]
            if key == curr:
                return curr
            if key < curr:
                new_left = insert(key, left)
                if new_left != left:
                    present, color, _old, right = nodes[curr]
                    nodes[curr] = (present, color, new_left, right)
            else:
                new_right = insert(key, right)
                if new_right != right:
                    present, color, left, _old = nodes[curr]
                    nodes[curr] = (present, color, left, new_right)
            return balance(curr)

        members = [
            int(k) for k in rng.choice(
                self.key_space,
                size=max(1, int(self.key_space * self.initial_fill)),
                replace=False,
            )
        ]
        for k in members:
            root = insert(k, root)
            p, _c, l, r = nodes[root]
            nodes[root] = (p, BLACK, l, r)

        cluster.alloc(f"{self.prefix}/root", root)
        for k in range(self.key_space):
            cluster.alloc(
                _node_oid(self.prefix, k),
                nodes.get(k, (False, RED, None, None)),
            )

    # ------------------------------------------------------------------

    def _key(self, rng: Stream) -> int:
        return self.pick_key(rng, self.key_space)

    def make_write_op(self, node: int, rng: Stream) -> Op:
        key = self._key(rng)
        if rng.random() < 0.5:
            return Op(rb_add, (self.prefix, key), "rb.add", is_read=False)
        return Op(rb_remove, (self.prefix, key), "rb.remove", is_read=False)

    def make_read_op(self, node: int, rng: Stream) -> Op:
        return Op(rb_contains, (self.prefix, self._key(rng)), "rb.contains", is_read=True)
