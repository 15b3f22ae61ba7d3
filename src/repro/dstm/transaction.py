"""The transaction model: state, nesting, read/write sets, ETS.

Closed nesting (Moss & Hosking; §I of the paper): an inner transaction's
operations become part of the parent only when the inner commits; an inner
abort rolls back the inner alone, but a parent abort kills every nested
transaction, including already-committed ones.  Flat nesting (provided for
the ablation) inlines inner operations directly into the root.

Read/write lookups resolve through the ancestor chain — an inner
transaction sees its own uncommitted writes first, then its ancestors'.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set

from repro.dstm.errors import TransactionError

__all__ = ["ETS", "NestingModel", "ReadEntry", "Transaction", "TxStatus"]

_SENTINEL = object()


class TxStatus(str, enum.Enum):
    LIVE = "live"
    COMMITTED = "committed"
    ABORTED = "aborted"


class NestingModel(str, enum.Enum):
    CLOSED = "closed"
    FLAT = "flat"


@dataclass(slots=True)
class ETS:
    """The paper's execution-time structure: (start, request, expected commit).

    All three are *local wall-clock* timestamps of the invoking node —
    they travel inside request messages and are only ever compared as
    differences, so clock skew between nodes cancels out.
    """

    start: float
    request: float
    expected_commit: float

    @property
    def elapsed(self) -> float:
        """|ETS.r - ETS.s| — how long the transaction has already run."""
        return self.request - self.start

    @property
    def expected_remaining(self) -> float:
        """|ETS.c - ETS.r| — expected time still needed to commit."""
        return max(0.0, self.expected_commit - self.request)


@dataclass
class ReadEntry:
    """One read-set record."""

    oid: str
    version: int
    #: node the value was served from (owner hint for diagnostics)
    served_by: int
    #: cached value, so repeated reads are stable (opacity)
    value: Any = None


class Transaction:
    """One (possibly nested) transaction."""

    _ids = itertools.count(1)

    def __init__(
        self,
        node: int,
        parent: Optional["Transaction"] = None,
        profile: str = "default",
        nesting: NestingModel = NestingModel.CLOSED,
        start_local_time: float = 0.0,
        start_clock: int = 0,
        task_id: Optional[str] = None,
    ) -> None:
        seq = next(Transaction._ids)
        self.txid = f"tx{seq}" if parent is None else f"{parent.txid}-{seq}"
        #: stable identity across retry *attempts* of the same logical
        #: transaction — the protocol (queues, hand-offs, duplicate
        #: removal) keys on this, so a retried transaction is recognised
        #: as "the same requester" (Algorithm 3's removeDuplicate).
        self.task_id = task_id if task_id is not None else (
            parent.task_id if parent is not None else self.txid
        )
        self.node = node
        self.parent = parent
        self.children: List[Transaction] = []
        self.profile = profile
        self.nesting = nesting
        self.status = TxStatus.LIVE
        #: local wall time the (current attempt of the) transaction began
        self.start_local_time = start_local_time
        #: TFA logical start clock; advanced by forwarding
        self.start_clock = start_clock
        self.rset: Dict[str, ReadEntry] = {}
        self.wset: Dict[str, Any] = {}
        #: objects write-acquired (ownership held) by *this* level
        self.acquired: Set[str] = set()
        #: number of times this transaction attempt-level aborted
        self.aborts = 0
        #: simulation time this (root) transaction serialised at — set by
        #: the engine at commit: writers at value-install time, read-only
        #: transactions at validation start (their snapshot is provably
        #: intact at that instant).  None until committed.
        self.serialized_at: Optional[float] = None
        #: per-object local contention levels piggybacked on grants (myCL)
        self.known_cl: Dict[str, int] = {}
        if parent is not None:
            parent.children.append(self)

    # -- structure ------------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def root(self) -> "Transaction":
        tx: Transaction = self
        while tx.parent is not None:
            tx = tx.parent
        return tx

    @property
    def depth(self) -> int:
        depth, tx = 0, self
        while tx.parent is not None:
            depth, tx = depth + 1, tx.parent
        return depth

    def ancestors(self) -> Iterator["Transaction"]:
        """self, parent, grandparent, ... root."""
        tx: Optional[Transaction] = self
        while tx is not None:
            yield tx
            tx = tx.parent

    def is_ancestor_of(self, other: "Transaction") -> bool:
        return any(anc is self for anc in other.ancestors())

    def live_descendants(self) -> Iterator["Transaction"]:
        for child in self.children:
            if child.status is TxStatus.LIVE:
                yield child
                yield from child.live_descendants()

    # -- read/write set resolution ------------------------------------------------

    # The per-operation lookups walk the chain by ``parent`` themselves:
    # an ``ancestors()`` generator costs two frames per walk on a root.

    def lookup_write(self, oid: str) -> Any:
        """Uncommitted value for ``oid`` visible at this level (ancestor
        chain), or the module sentinel when none exists."""
        tx: Optional[Transaction] = self
        while tx is not None:
            if oid in tx.wset:
                return tx.wset[oid]
            tx = tx.parent
        return _SENTINEL

    def has_local_value(self, oid: str) -> bool:
        return self.lookup_write(oid) is not _SENTINEL

    def has_read(self, oid: str) -> bool:
        tx: Optional[Transaction] = self
        while tx is not None:
            if oid in tx.rset:
                return True
            tx = tx.parent
        return False

    def read_version(self, oid: str) -> Optional[int]:
        for tx in self.ancestors():
            entry = tx.rset.get(oid)
            if entry is not None:
                return entry.version
        return None

    def record_read(self, oid: str, version: int, served_by: int) -> None:
        if self.status is not TxStatus.LIVE:
            raise TransactionError(f"{self.txid}: read on {self.status.value} transaction")
        if not self.has_read(oid):
            self.rset[oid] = ReadEntry(oid, version, served_by)

    def record_write(self, oid: str, value: Any) -> None:
        if self.status is not TxStatus.LIVE:
            raise TransactionError(f"{self.txid}: write on {self.status.value} transaction")
        if self.nesting is NestingModel.FLAT and self.parent is not None:
            # Flat nesting inlines everything into the root.
            self.root.wset[oid] = value
        else:
            self.wset[oid] = value

    def holds(self, oid: str) -> bool:
        """Is ``oid`` write-acquired anywhere on the ancestor chain?"""
        return any(oid in tx.acquired for tx in self.ancestors())

    # -- nesting lifecycle -----------------------------------------------------------

    def merge_into_parent(self) -> None:
        """Closed-nesting child commit: fold effects into the parent."""
        if self.parent is None:
            raise TransactionError(f"{self.txid} has no parent to merge into")
        if self.status is not TxStatus.LIVE:
            raise TransactionError(f"{self.txid}: merge on {self.status.value} transaction")
        parent = self.parent
        for oid, entry in self.rset.items():
            if oid not in parent.rset:
                parent.rset[oid] = entry
        parent.wset.update(self.wset)
        parent.acquired.update(self.acquired)
        for oid, cl in self.known_cl.items():
            parent.known_cl[oid] = cl
        self.status = TxStatus.COMMITTED

    def mark_aborted(self) -> List["Transaction"]:
        """Abort this level; returns every transaction killed (self plus
        all *live or committed* descendants — committed children die with
        their parent under closed nesting), in post-order: each child's
        subtree in ``children`` order, then the level itself.

        Committed descendants whose effects were merged upward die too —
        but only those committed INTO this subtree's scope, which is
        exactly what the ``children`` lists hold.  The walk is a loop
        over an explicit stack, not a recursive closure: a closure that
        calls itself is a reference cycle per abort (only the cyclic
        collector frees it), and recursion caps the depth of a chain.
        Visiting children last-first and reversing the visit order gives
        the post-order.
        """
        if self.status is not TxStatus.LIVE:
            raise TransactionError(f"{self.txid}: abort on {self.status.value} transaction")
        killed: List[Transaction] = []
        stack = [self]
        while stack:
            tx = stack.pop()
            killed.append(tx)
            for child in tx.children:
                if child.status is not TxStatus.ABORTED:
                    stack.append(child)
        killed.reverse()
        for tx in killed:
            tx.status = TxStatus.ABORTED
        return killed

    def dismantle(self) -> None:
        """Empty the ``children`` list of every level of this subtree.

        A finished tree is a reference cycle (``parent`` ↔ ``children``);
        once no level links down, each level is freed by reference
        counting as soon as its last holder lets go.  Called when a root
        attempt ends and when a failed child is detached; nothing reads
        ``children`` after that.
        """
        stack = [self]
        while stack:
            tx = stack.pop()
            stack.extend(tx.children)
            tx.children.clear()

    # -- bookkeeping -------------------------------------------------------------

    def my_cl(self) -> int:
        """The paper's myCL: transactions wanting objects this tx is using."""
        return sum(self.known_cl.values())

    def __repr__(self) -> str:
        return (
            f"<Tx {self.txid} node={self.node} {self.status.value} "
            f"r={len(self.rset)} w={len(self.wset)} depth={self.depth}>"
        )
