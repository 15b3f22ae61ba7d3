"""The deadline/retry/backoff policy — the *one* place timeout shapes live.

Every RPC in the system (proxy object opens, directory registrations
and withdraws, validation fan-outs, fault-recovery publishes) is issued
under a :class:`RetryPolicy` when faults are enabled: the one ladder
:data:`repro.faults.recovery.RETRY_POLICY`.
Before ``repro.rpc`` existed the growing-timeout logic was duplicated
between ``faults/recovery.py`` (the knobs) and the call sites in
``net/node.py`` / ``dstm/proxy.py`` (the loops); both now delegate
here, and the one retry path, :meth:`repro.net.node.Node.submit`'s timer
resend chain, consumes it directly: the chain drives the call's reply
signal, so a caller never knows whether its call was retried.

Retry semantics: attempt 0 waits ``timeout``; each subsequent attempt
multiplies the wait by ``backoff_factor`` up to ``backoff_cap`` — the
growing timeout *is* the exponential backoff (there is no separate
sleep, so a recovered peer is re-probed as soon as the previous window
closes).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff parameters for RPCs over the simulated network."""

    timeout: float = 0.25
    max_retries: int = 5
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        # negated checks: a NaN fails every comparison, so it fails here
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if not (isinstance(self.max_retries, int) and self.max_retries >= 0):
            raise ValueError("max_retries must be an int >= 0")
        if not self.backoff_factor >= 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not self.backoff_cap >= self.timeout:
            raise ValueError("backoff_cap must be >= timeout")

    @property
    def attempts(self) -> int:
        """Total send attempts (first try + retries)."""
        return self.max_retries + 1

    def nth_timeout(self, attempt: int) -> float:
        """The reply window used on ``attempt`` (0-based)."""
        return min(self.timeout * self.backoff_factor**attempt, self.backoff_cap)
