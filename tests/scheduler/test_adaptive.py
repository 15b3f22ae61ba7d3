"""Unit tests for the adaptive CL-threshold controller."""

from repro.scheduler.adaptive import (
    EPOCH,
    INITIAL_THRESHOLD,
    MAX_THRESHOLD,
    MIN_THRESHOLD,
    AdaptiveThreshold,
)


def feed_epochs(a, counts, start=0.0):
    """Feed one epoch per entry of ``counts``: that many commits spread
    over ``(start, start + EPOCH]``, the last one closing the epoch.
    Returns where the next epoch starts."""
    for n in counts:
        for i in range(n):
            a.note_commit(start + EPOCH * (i + 1) / n)
        start += EPOCH
    return start


class TestConstruction:
    def test_defaults(self):
        a = AdaptiveThreshold()
        assert MIN_THRESHOLD <= a.current == INITIAL_THRESHOLD <= MAX_THRESHOLD


class TestAdaptation:
    def test_no_adjustment_within_first_epoch(self):
        a = AdaptiveThreshold()
        a.note_commit(EPOCH / 4)
        a.note_commit(EPOCH / 2)
        assert a.current == INITIAL_THRESHOLD
        assert a.adjustments == 0

    def test_improving_rate_keeps_direction(self):
        a = AdaptiveThreshold()
        feed_epochs(a, [10])               # baseline epoch: no step
        assert a.current == INITIAL_THRESHOLD
        feed_epochs(a, [20, 40], start=EPOCH)  # better, better again
        assert a.current == INITIAL_THRESHOLD + 2
        assert a.adjustments == 2

    def test_degrading_rate_reverses_direction(self):
        a = AdaptiveThreshold()
        # Epoch 1: baseline (sets last_rate, no adjustment).
        start = feed_epochs(a, [10])
        assert a.adjustments == 0
        # Epoch 2: same rate -> keeps climbing (+1).
        start = feed_epochs(a, [10], start)
        assert a.current == INITIAL_THRESHOLD + 1
        # Epoch 3: rate collapses -> direction reverses (-1).
        feed_epochs(a, [2], start)
        assert a.current == INITIAL_THRESHOLD

    def test_threshold_clamped_to_bounds(self):
        a = AdaptiveThreshold()
        # Ever-rising throughput climbs to the ceiling and stays there.
        start = feed_epochs(a, range(10, 40))
        assert a.current == MAX_THRESHOLD
        # One drop reverses; a steady rate then descends to the floor.
        feed_epochs(a, [5] * 30, start)
        assert a.current == MIN_THRESHOLD

    def test_repr(self):
        assert "AdaptiveThreshold" in repr(AdaptiveThreshold())
