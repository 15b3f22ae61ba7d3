"""Errors of the RPC substrate."""

from __future__ import annotations

__all__ = ["EndpointError", "PeerUnreachable"]


class EndpointError(ValueError):
    """A call violated an endpoint's declared request/reply shape."""


class PeerUnreachable(RuntimeError):
    """An RPC peer stayed silent through every timeout/retry attempt.

    The one exception for it: raised by :meth:`repro.rpc.RpcClient.call`
    under a :class:`~repro.rpc.RetryPolicy`, caught where the call is
    made.  The D-STM layer turns it into a ``TransactionAborted`` with
    reason ``OWNER_FAILURE`` (or, in its background processes, gives up
    until the next period).
    """

    def __init__(self, dst: int, what: str, attempts: int) -> None:
        super().__init__(f"node {dst} unreachable: {what} failed {attempts}x")
        self.dst = dst
        self.what = what
        self.attempts = attempts
