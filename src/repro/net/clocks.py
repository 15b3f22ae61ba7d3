"""Asynchronous per-node clocks.

TFA exists precisely because distributed nodes do not share a clock.  We
model two clocks per node:

* a **wall clock** with constant skew and rate drift relative to simulated
  time — used only for timestamps a node would locally measure (execution
  times, backoff timers), never for cross-node comparison;
* the **TFA transactional clock**: an integer logical clock bumped on each
  local write-transaction commit and advanced to any larger value observed
  on incoming messages (a Lamport clock specialised to commit events).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import Stream

__all__ = ["NodeClock"]


class NodeClock:
    """The clock pair of a single node."""

    __slots__ = ("node_id", "skew", "drift", "tfa_clock")

    def __init__(
        self,
        node_id: int,
        rng: Optional[Stream] = None,
        max_skew: float = 0.5,
        max_drift: float = 1e-4,
    ) -> None:
        self.node_id = node_id
        if rng is None:
            self.skew = 0.0
            self.drift = 0.0
        else:
            self.skew = float(rng.uniform(-max_skew, max_skew))
            self.drift = float(rng.uniform(-max_drift, max_drift))
        #: the logical clock's reading; a plain attribute (one read per
        #: message sent and received) that only :meth:`tick` and
        #: :meth:`advance_to` write
        self.tfa_clock = 0

    # -- wall clock -----------------------------------------------------------

    def wall_time(self, sim_now: float) -> float:
        """This node's local wall-clock reading at simulated time ``sim_now``."""
        return sim_now * (1.0 + self.drift) + self.skew

    # -- TFA logical clock ------------------------------------------------------

    def tick(self) -> int:
        """Bump on local write-commit; returns the new value."""
        self.tfa_clock += 1
        return self.tfa_clock

    def advance_to(self, observed: int) -> bool:
        """Advance to an observed remote clock; True if we actually moved."""
        if observed > self.tfa_clock:
            self.tfa_clock = observed
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<NodeClock node={self.node_id} tfa={self.tfa_clock} "
            f"skew={self.skew:+.3f}s drift={self.drift:+.2e}>"
        )
