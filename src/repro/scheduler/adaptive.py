"""Adaptive CL-threshold controller.

§III-B: "The threshold of a low or high CL relies on the number of nodes,
transactions, and shared objects.  Thus, the CL's threshold is adaptively
determined ... at a certain point of the CL's threshold, we observe a peak
point of transactional throughput."

We realise the adaptation as 1-D hill climbing on observed commit
throughput: time is sliced into epochs; at each epoch boundary the
controller compares this epoch's commit rate with the previous one and
keeps moving the threshold in the same direction while throughput improves,
reversing direction when it degrades.  This finds (and then hovers around)
the paper's peak point without any global knowledge.
"""

from __future__ import annotations

__all__ = ["AdaptiveThreshold"]

#: the threshold the climb starts from
INITIAL_THRESHOLD = 3
#: the climb's bounds
MIN_THRESHOLD = 1
MAX_THRESHOLD = 16
#: epoch length (local seconds): one adaptation step per epoch at most
EPOCH = 2.0


class AdaptiveThreshold:
    """Hill-climbing threshold in ``[MIN_THRESHOLD, MAX_THRESHOLD]``."""

    def __init__(self) -> None:
        #: the CL threshold in force
        self.current = INITIAL_THRESHOLD
        self._direction = 1
        self._epoch_start = 0.0
        self._epoch_commits = 0
        self._last_rate: float | None = None
        #: number of completed adaptation steps (diagnostics)
        self.adjustments = 0

    def note_commit(self, now: float) -> None:
        """Feed one commit; may close the epoch and adjust the threshold."""
        self._epoch_commits += 1
        span = now - self._epoch_start
        if span < EPOCH:
            return
        rate = self._epoch_commits / span
        if self._last_rate is not None:
            if rate < self._last_rate:
                self._direction = -self._direction
            self.current = max(
                MIN_THRESHOLD, min(MAX_THRESHOLD, self.current + self._direction)
            )
            self.adjustments += 1
        self._last_rate = rate
        self._epoch_start = now
        self._epoch_commits = 0

    def __repr__(self) -> str:
        return (
            f"<AdaptiveThreshold t={self.current} dir={self._direction:+d} "
            f"adjustments={self.adjustments}>"
        )
