"""Scheduler interface.

A scheduler instance is *per node* (it owns node-local state: the
transaction stats table, and for RTS its decision counters and CL
threshold).  The TM proxy invokes it at two points:

* **owner side** — :meth:`SchedulerPolicy.on_conflict` whenever a
  retrieve-request hits an object that is in use or validating.  The
  returned :class:`ConflictDecision` either rejects the requester (who
  then aborts its root transaction) or enqueues it with a backoff budget
  (RTS only).
* **requester side** — :meth:`SchedulerPolicy.retry_backoff` after a root
  abort, yielding how long to stall before re-issuing the transaction;
  :meth:`SchedulerPolicy.on_commit` feeding the stats table; and
  :meth:`SchedulerPolicy.expected_duration` reading it back when a
  transaction starts.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Dict

from repro.dstm.errors import AbortReason
from repro.dstm.objects import ObjectMode
from repro.dstm.transaction import ETS, Transaction
from repro.scheduler.queues import RequesterList
from repro.util.stats import Ewma

__all__ = ["ConflictContext", "ConflictDecision", "DecisionKind", "SchedulerPolicy"]

#: weight of the newest commit latency in a stats-table EWMA
STATS_ALPHA = 0.2


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
    """Algorithm 3's inputs for one remote conflict.

    One instance per remote conflict, hence ``slots=True``.
    """

    mode: ObjectMode
    requester_node: int
    requester_txid: str          # root txid of the requesting transaction
    requester_cl: int            # myCL piggybacked in the request
    ets: ETS
    queue: RequesterList         # the object's scheduling_List (and its bk)
    #: owner's estimate of how long the current holder still needs before
    #: it releases the object (the |t7 − t4| term of §III-B).
    holder_remaining: float = 0.0


class SchedulerPolicy(abc.ABC):
    """Base class for per-node scheduling policies."""

    #: short machine name ("rts", "tfa", "tfa-backoff")
    name: str = "base"

    def __init__(self) -> None:
        #: the transaction stats table (§III-B): per transaction profile,
        #: an EWMA of commit latencies — the point estimate the ETS triple
        #: needs.  (The paper's per-entry bloom filter of recent commit
        #: times is a storage format nothing in the protocol reads.)
        self.stats: Dict[str, Ewma] = {}

    # -- owner side --------------------------------------------------------------

    @abc.abstractmethod
    def on_conflict(self, ctx: ConflictContext) -> ConflictDecision:
        """Resolve a conflict against an in-use/validating object."""

    # -- requester side ------------------------------------------------------------

    @abc.abstractmethod
    def retry_backoff(self, root: Transaction, reason: AbortReason, attempt: int) -> float:
        """Stall time before re-running an aborted root transaction."""

    def on_commit(self, root: Transaction, duration: float, now_local: float) -> None:
        """A root transaction committed at local time ``now_local`` after
        ``duration`` local seconds."""
        ewma = self.stats.get(root.profile)
        if ewma is None:
            ewma = self.stats[root.profile] = Ewma(alpha=STATS_ALPHA)
        ewma.observe(duration)

    def expected_duration(self, profile: str, fallback: float) -> float:
        """Expected commit latency for ``profile``, or ``fallback`` before
        the stats table has seen it commit."""
        ewma = self.stats.get(profile)
        return fallback if ewma is None else ewma.value
