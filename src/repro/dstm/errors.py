"""Exceptions and abort-cause taxonomy.

:class:`AbortReason` distinguishes every way a transaction can die; the
metrics layer aggregates these into the paper's Table I (nested aborts
caused by a parent abort vs. nested aborts from validation/conflicts).

A peer that stays silent through every RPC retry has no exception of its
own here: callers catch :class:`repro.rpc.errors.PeerUnreachable` where
they call, and turn it into a :class:`TransactionAborted` with reason
:attr:`AbortReason.OWNER_FAILURE`.
"""

from __future__ import annotations

import enum
from typing import Optional

__all__ = [
    "AbortReason",
    "TransactionAborted",
    "TransactionError",
]


class AbortReason(str, enum.Enum):
    """Why a transaction aborted."""

    #: Read-set entry invalidated, detected while forwarding (TFA early
    #: validation — the paper's *first* abort kind).
    EARLY_VALIDATION = "early_validation"
    #: Read-set entry invalidated at commit time.
    COMMIT_VALIDATION = "commit_validation"
    #: Lost a conflict on an object being validated / in use (the paper's
    #: *second* abort kind — the one RTS schedules).
    BUSY_OBJECT = "busy_object"
    #: RTS: was enqueued but the assigned backoff expired before the object
    #: arrived (Algorithm 2's null return after the wait).
    BACKOFF_EXPIRED = "backoff_expired"
    #: A closed-nested transaction dies because its parent (or any
    #: ancestor) aborted.
    PARENT_ABORT = "parent_abort"
    #: Killed by a requester-wins contention manager (ablation only).
    DOOMED_BY_REQUESTER = "doomed_by_requester"
    #: Explicit application-level abort.
    USER_ABORT = "user_abort"
    #: A node this transaction depends on (object owner, home directory,
    #: or validation authority) stayed unreachable through every RPC
    #: retry, or a lease reclaim fenced our copy (fault injection).
    OWNER_FAILURE = "owner_failure"


class TransactionError(RuntimeError):
    """Programming errors against the transaction API (not aborts)."""


class TransactionAborted(Exception):
    """Control-flow signal: the transaction identified by ``victim`` died.

    The exception propagates out of transaction bodies; retry loops catch
    it at the nesting level that matches ``victim`` (an inner abort is
    handled by the inner retry loop, an ancestor abort propagates further
    up — the closed-nesting rule).
    """

    def __init__(
        self,
        victim: "Transaction",  # noqa: F821
        reason: AbortReason,
        detail: str = "",
        oid: Optional[str] = None,
    ) -> None:
        super().__init__(f"{victim.txid} aborted: {reason.value}"
                         + (f" on {oid}" if oid else "")
                         + (f" ({detail})" if detail else ""))
        self.victim = victim
        self.reason = AbortReason(reason)
        self.detail = detail
        self.oid = oid
