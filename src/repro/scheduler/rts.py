"""The Reactive Transactional Scheduler (RTS) — the paper's contribution.

Owner-side decision procedure (Algorithm 3), executed whenever a retrieve
request hits an object that is in use or validating:

1. ``removeDuplicate`` — if the requester was already queued (it timed out
   and re-requested), drop the stale entry first.
2. **Execution-time test** — only a parent transaction that has already
   invested enough work is worth parking: the requester is eligible for
   enqueueing iff the object's current backlog ``bk`` is smaller than the
   requester's elapsed execution time ``|ETS.r − ETS.s|``.  A short-running
   transaction is cheap to redo, so it aborts (§III-A: "RTS aborts a parent
   transaction with a short execution time").
3. **Contention test** — compute the total contention level
   ``CL = queue length (+1 for this requester) + myCL`` and enqueue only
   when it stays below the CL threshold; a high CL means the objects this
   transaction is using are themselves wanted, and parking it would pile
   up queueing delay (§III-A: "RTS enqueues a parent transaction with a
   low CL").
4. An enqueued requester is granted backoff ``bk + |ETS.c − ETS.r|``
   *before* the backlog is bumped by its own expected remaining time for
   writers — readers do not serialise behind each other (the committed
   object is multicast to all of them), so they get the current backlog
   only and do not bump it.

Requester-side (Algorithm 2): an enqueued transaction waits for an object
hand-off, racing its backoff budget; expiry aborts the root transaction
(reason ``BACKOFF_EXPIRED``).  Retries after *any* abort restart
immediately — RTS stalls live transactions in queues, not dead ones.

The CL threshold is fixed or adaptive (:class:`AdaptiveThreshold`
hill-climbs to the paper's throughput peak).
"""

from __future__ import annotations

from typing import Optional

from repro.dstm.errors import AbortReason
from repro.dstm.objects import ObjectMode
from repro.dstm.transaction import Transaction
from repro.scheduler.adaptive import AdaptiveThreshold
from repro.scheduler.base import ConflictContext, ConflictDecision, SchedulerPolicy
from repro.scheduler.queues import Requester

__all__ = ["RtsScheduler"]

#: floor of an enqueued requester's backoff budget (local seconds)
MIN_ENQUEUE_BACKOFF = 1e-3
#: ceiling of every RTS stall: an enqueue budget or an owner-failure retry
MAX_BACKOFF = 2.0
#: multiplier on an enqueued requester's expected wait
BACKOFF_SAFETY = 2.0


class RtsScheduler(SchedulerPolicy):
    """Reactive transactional scheduling for closed-nested transactions.

    ``cl_threshold`` fixes the CL threshold; None (the default) adapts it
    with an :class:`AdaptiveThreshold` fed by this node's commits.
    """

    name = "rts"

    def __init__(
        self, cl_threshold: Optional[int] = None, admission: str = "paper"
    ) -> None:
        super().__init__()
        self._fixed_threshold = 0 if cl_threshold is None else int(cl_threshold)
        #: the threshold controller; None under a fixed threshold
        self.adaptive = AdaptiveThreshold() if cl_threshold is None else None
        if admission not in ("paper", "economic"):
            raise ValueError(f"admission must be 'paper' or 'economic', got {admission!r}")
        self.admission = admission
        # Decision counters (diagnostics + tests)
        self.enqueued = 0
        self.rejected_short_exec = 0
        self.rejected_high_cl = 0

    @property
    def cl_threshold(self) -> int:
        adaptive = self.adaptive
        return self._fixed_threshold if adaptive is None else adaptive.current

    # -- owner side --------------------------------------------------------------

    def on_conflict(self, ctx: ConflictContext) -> ConflictDecision:
        queue = ctx.queue

        # Execution-time test (Algorithm 3 line 11; rationale in §III-A:
        # "if a parent transaction with a short execution time is
        # enqueued, the queuing delay may exceed its execution time").
        # Two calibrations of the same idea:
        #  * "paper"    — the literal `bk < |ETS.r - ETS.s|`: only the
        #    queued backlog counts against the requester.  Maximises the
        #    abort/communication economy Table I reports.
        #  * "economic" — also charges the current validator's remaining
        #    time, so early-stage transactions fail fast like plain TFA.
        #    Maximises worst-case throughput at the cost of more aborts.
        threshold = self.cl_threshold
        contention = queue.get_contention() + 1 + max(0, ctx.requester_cl)
        expected_wait = queue.bk
        if self.admission == "economic":
            expected_wait += ctx.holder_remaining
        if expected_wait >= ctx.ets.elapsed:
            self.rejected_short_exec += 1
            return ConflictDecision.abort(
                cause="short_exec", contention=contention, threshold=threshold
            )

        # Contention test: queued transactions + this requester + its myCL.
        if contention >= threshold:
            self.rejected_high_cl += 1
            return ConflictDecision.abort(
                cause="high_cl", contention=contention, threshold=threshold
            )

        # §III-B: the head of the queue waits out the validator
        # (|t7 − t4|); later writers additionally wait out the expected
        # execution of everything queued ahead (bk).  The safety factor
        # absorbs the heavy tail of hold times — an expired backoff costs
        # a full abort-or-re-request cycle, so undershooting is the
        # expensive direction.
        backoff = (ctx.holder_remaining + queue.bk) * BACKOFF_SAFETY
        backoff = min(MAX_BACKOFF, max(MIN_ENQUEUE_BACKOFF, backoff))
        if ctx.mode is ObjectMode.ACQUIRE:
            # Acquirers serialise: the next one waits behind this one too.
            queue.bk += ctx.ets.expected_remaining
        queue.add_requester(
            Requester(ctx.requester_node, ctx.requester_txid, ctx.mode)
        )
        self.enqueued += 1
        return ConflictDecision.enqueue(
            backoff, contention=contention, threshold=threshold
        )

    # -- requester side ------------------------------------------------------------

    def retry_backoff(self, root: Transaction, reason: AbortReason, attempt: int) -> float:
        if reason is AbortReason.OWNER_FAILURE:
            # Environmental failure: the owner (or a home) is unreachable.
            # Retrying immediately would just burn the full RPC-timeout
            # ladder again, so stall deterministically, doubling up to the
            # scheduler's backoff ceiling while the lease machinery
            # recovers the object.
            return min(MAX_BACKOFF, 0.025 * 2.0 ** min(attempt, 6))
        # RTS parks live transactions in owner-side queues; dead ones
        # restart immediately.
        return 0.0

    # -- feedback -------------------------------------------------------------------

    def on_commit(self, root: Transaction, duration: float, now_local: float) -> None:
        super().on_commit(root, duration, now_local)
        if self.adaptive is not None:
            self.adaptive.note_commit(now_local)
