"""Scheduler interface.

A scheduler instance is *per node* (it owns node-local state: queues,
contention tracker, stats table).  The TM proxy invokes it at two points:

* **owner side** — :meth:`SchedulerPolicy.on_conflict` whenever a
  retrieve-request hits an object that is in use or validating.  The
  returned :class:`ConflictDecision` either rejects the requester (who
  then aborts its root transaction) or enqueues it with a backoff budget
  (RTS only).
* **requester side** — :meth:`SchedulerPolicy.retry_backoff` after a root
  abort, yielding how long to stall before re-issuing the transaction;
  and :meth:`SchedulerPolicy.on_commit` feeding the stats table.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.dstm.errors import AbortReason
from repro.dstm.objects import ObjectMode, VersionedObject
from repro.dstm.transaction import ETS, Transaction
from repro.scheduler.queues import RequesterList
from repro.scheduler.stats_table import TransactionStatsTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.dstm.proxy import TMProxy

__all__ = ["ConflictContext", "ConflictDecision", "DecisionKind", "SchedulerPolicy"]


class DecisionKind(str, enum.Enum):
    #: reject the requester; its root transaction aborts.
    ABORT = "abort"
    #: keep the requester's root alive, queued; deliver the object later.
    ENQUEUE = "enqueue"


@dataclass(slots=True)
class ConflictDecision:
    kind: DecisionKind
    #: backoff budget granted to an enqueued requester (RTS), or a hint
    #: for an aborted one (unused by the baselines' owner side).
    backoff: float = 0.0
    #: which rule produced this outcome ("short_exec", "high_cl",
    #: "enqueue", "baseline", ...) — the scheduler-decision audit trail.
    cause: str = ""
    #: total contention level the decision saw (0 for policies that do
    #: not compute one).
    contention: int = 0
    #: the CL threshold in force at decision time (0 when not applicable).
    threshold: int = 0

    @classmethod
    def abort(
        cls, cause: str = "abort", contention: int = 0, threshold: int = 0
    ) -> "ConflictDecision":
        return cls(DecisionKind.ABORT, cause=cause, contention=contention,
                   threshold=threshold)

    @classmethod
    def enqueue(
        cls,
        backoff: float,
        cause: str = "enqueue",
        contention: int = 0,
        threshold: int = 0,
    ) -> "ConflictDecision":
        return cls(DecisionKind.ENQUEUE, backoff, cause=cause,
                   contention=contention, threshold=threshold)


@dataclass(slots=True)
class ConflictContext:
    """Everything the owner-side policy may consult.

    One instance per remote conflict, hence ``slots=True``.
    """

    oid: str
    obj: VersionedObject
    mode: ObjectMode
    requester_node: int
    requester_txid: str          # root txid of the requesting transaction
    requester_cl: int            # myCL piggybacked in the request
    ets: ETS
    queue: RequesterList
    now_local: float             # owner's wall clock
    #: owner's estimate of how long the current holder still needs before
    #: it releases the object (the |t7 − t4| term of §III-B).
    holder_remaining: float = 0.0
    #: True when the requester was already in the queue (re-request after
    #: its previous backoff expired) — Algorithm 3's removeDuplicate case.
    was_duplicate: bool = False


class SchedulerPolicy(abc.ABC):
    """Base class for per-node scheduling policies."""

    #: short machine name ("rts", "tfa", "tfa-backoff")
    name: str = "base"

    def __init__(self) -> None:
        self.stats_table = TransactionStatsTable()
        self.node_id: Optional[int] = None
        #: decision reporting hook (repro.check.explore's no-lost-wakeup
        #: property): the proxy calls it with (ctx, decision) after every
        #: owner-side conflict resolution.  None (the default) keeps the
        #: decision path on a one-guard no-op.
        self.decision_observer: Optional[
            Callable[["ConflictContext", "ConflictDecision"], None]
        ] = None

    def bind(self, node_id: int) -> None:
        """Attach to a node (called by the proxy during setup)."""
        self.node_id = node_id

    # -- owner side --------------------------------------------------------------

    @abc.abstractmethod
    def on_conflict(self, ctx: ConflictContext) -> ConflictDecision:
        """Resolve a conflict against an in-use/validating object."""

    def on_request(self, oid: str, root_txid: str, now_local: float) -> None:
        """Every retrieve-request observed at this owner (CL bookkeeping)."""

    def local_cl(self, oid: str, now_local: float) -> int:
        """This owner's local contention level for ``oid`` (0 for policies
        that do not track contention)."""
        return 0

    def note_commit_time(self, now_local: float) -> None:
        """Wall-clock commit instants (feeds adaptive controllers)."""

    # -- requester side ------------------------------------------------------------

    @abc.abstractmethod
    def retry_backoff(self, root: Transaction, reason: AbortReason, attempt: int) -> float:
        """Stall time before re-running an aborted root transaction."""

    # -- lifecycle feedback ------------------------------------------------------------

    def on_commit(self, root: Transaction, duration: float) -> None:
        """A root transaction committed after ``duration`` local seconds."""
        self.stats_table.record_commit(root.profile, duration)

    def on_abort(self, root: Transaction, reason: AbortReason) -> None:
        """A root transaction aborted (hook for adaptive policies)."""

    def expected_duration(self, profile: str, fallback: float) -> float:
        """Expected commit latency for ``profile`` from the stats table."""
        return self.stats_table.expected_duration(profile, fallback)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} node={self.node_id}>"
