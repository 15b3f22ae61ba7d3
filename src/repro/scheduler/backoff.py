"""TFA+Backoff: abort the loser, stall it with randomised exponential backoff.

The "TFA+Backoff" competitor in §IV: "a transaction aborts with a backoff
time if a conflict occurs".  The owner side still always aborts; the
requester side sleeps ``base * 2^attempt`` (jittered, capped) before
re-running the root transaction.  As the paper observes, this is usually
*worse* than plain TFA for nested transactions: the stall does not reserve
the object, so on wake-up the transaction pays the full re-acquisition
cost and frequently meets fresh contention.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dstm.errors import AbortReason
from repro.dstm.transaction import Transaction
from repro.scheduler.base import ConflictContext, ConflictDecision, SchedulerPolicy

__all__ = ["BackoffScheduler"]

#: the first retry's stall ceiling, and the floor of every stall (s)
BACKOFF_BASE = 5e-3
#: the ceiling the doubling stops at (s)
BACKOFF_CAP = 0.25


class BackoffScheduler(SchedulerPolicy):
    """Randomised truncated exponential backoff on abort."""

    name = "tfa-backoff"

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def on_conflict(self, ctx: ConflictContext) -> ConflictDecision:
        return ConflictDecision.abort(cause="baseline")

    def retry_backoff(self, root: Transaction, reason: AbortReason, attempt: int) -> float:
        # Conflict-driven aborts back off, and so do owner failures (the
        # peer needs time to restart or be reclaimed); validation failures
        # retry immediately (backing off would not help: the read is
        # already stale).
        if reason not in (
            AbortReason.BUSY_OBJECT,
            AbortReason.BACKOFF_EXPIRED,
            AbortReason.OWNER_FAILURE,
        ):
            return 0.0
        ceiling = min(BACKOFF_CAP, BACKOFF_BASE * (2.0 ** min(attempt, 16)))
        return float(self._rng.uniform(BACKOFF_BASE, max(BACKOFF_BASE, ceiling)))
