"""Measurement primitives: counters, tallies, and time-weighted statistics.

These are the building blocks the metrics layer (:mod:`repro.core.metrics`)
aggregates into throughput and abort-rate reports.  They are deliberately
simple online accumulators — O(1) per observation, no stored samples unless
asked — so instrumentation never dominates simulation cost (the guides'
"be easy on the memory" rule).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

__all__ = ["Counter", "Tally", "TimeWeighted", "percentile"]


def percentile(data: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of sorted, non-empty ``data``,
    interpolated linearly between the closest ranks."""
    idx = (len(data) - 1) * q / 100.0
    lo, hi = math.floor(idx), math.ceil(idx)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (idx - lo)


class Counter:
    """A named monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter is monotonic; use Tally for signed data")
        self.value += amount

    def rate(self, elapsed: float) -> float:
        """Events per unit time over ``elapsed`` (0 when no time passed)."""
        return self.value / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Tally:
    """Online mean/variance/min/max of observed samples (Welford).

    Optionally keeps raw samples for percentile queries when
    ``keep_samples=True``.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "_samples")

    def __init__(self, name: str, keep_samples: bool = False) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self._samples is not None:
            self._samples.append(value)

    @property
    def keep_samples(self) -> bool:
        return self._samples is not None

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100); requires ``keep_samples=True``."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} out of [0, 100]")
        if self._samples is None:
            raise RuntimeError(f"Tally {self.name!r} does not keep samples")
        if not self._samples:
            return 0.0
        return percentile(sorted(self._samples), q)

    def __repr__(self) -> str:
        return f"<Tally {self.name} n={self.count} mean={self.mean:.4g}>"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    Call :meth:`update` whenever the level changes; the integral of the
    signal is accumulated against the simulation clock supplied by the
    caller (keeps this module decoupled from the environment).
    """

    __slots__ = ("name", "_level", "_last_time", "_area", "_start")

    def __init__(self, name: str, initial: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._level = float(initial)
        self._last_time = float(start_time)
        self._start = float(start_time)
        self._area = 0.0

    @property
    def level(self) -> float:
        return self._level

    def update(self, now: float, level: float) -> None:
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        self._level = float(level)

    def add(self, now: float, delta: float) -> None:
        self.update(now, self._level + delta)

    def average(self, now: float) -> float:
        """Time-weighted mean of the signal over [start, now]."""
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        span = now - self._start
        if span <= 0:
            return self._level
        return (self._area + self._level * (now - self._last_time)) / span

    def __repr__(self) -> str:
        return f"<TimeWeighted {self.name} level={self._level:.4g}>"
