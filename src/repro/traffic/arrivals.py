"""Open-loop arrival processes.

Closed-loop workloads (a fixed worker population that only issues the
next transaction after the previous one finished) self-throttle under
contention: the offered load *adapts* to the system's service rate, so
saturation is invisible.  An arrival process decouples offered load from
service capacity — transactions arrive whether or not the cluster keeps
up, which is the regime a serving system actually lives in.

Two process shapes, both drawing exclusively from a caller-supplied
named seeded stream (same-seed byte identity, like every other
stochastic component):

* :class:`PoissonProcess` — memoryless arrivals at the requested rate;
* :class:`MmppProcess` — a 2-state Markov-modulated Poisson process
  (on/off): exponential sojourns alternate a quiet state with a burst
  state whose rate is ``burst_factor`` higher, normalised so the
  *long-run* average equals the requested rate.

Processes yield *intervals*, not absolute times: the engine passes the
current effective rate on every draw, which is how scenario scripts
retarget the rate mid-run without touching process state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "MmppProcess",
    "PoissonProcess",
    "make_process",
]

#: process kinds accepted by :func:`make_process` / ``ArrivalConfig.process``
ARRIVAL_PROCESSES = ("poisson", "mmpp")
#: mmpp: long-run fraction of time spent in the burst state
ON_FRACTION = 0.25
#: mmpp: mean quiet+burst cycle length (seconds)
MEAN_CYCLE = 2.0


class ArrivalProcess:
    """Interface: a stream of interarrival intervals."""

    def next_interval(self, now: float, rate: float) -> float:
        """Interval from ``now`` (relative sim time) to the next arrival
        at the current effective ``rate`` (arrivals/s)."""
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: intervals ~ Exp(rate)."""

    __slots__ = ("rng",)

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def next_interval(self, now: float, rate: float) -> float:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        return float(self.rng.exponential(1.0 / rate))


class MmppProcess(ArrivalProcess):
    """2-state (on/off) Markov-modulated Poisson process.

    Sojourn times are exponential with means ``ON_FRACTION * MEAN_CYCLE``
    (burst state) and ``(1 - ON_FRACTION) * MEAN_CYCLE`` (quiet state).
    State rates are scaled so the long-run average is the requested
    rate::

        quiet_rate = rate / (ON_FRACTION * burst_factor + 1 - ON_FRACTION)
        burst_rate = burst_factor * quiet_rate

    Each interval consumes a unit-exponential amount of *work* against
    the modulated intensity, integrated exactly across state boundaries
    (the inversion method for inhomogeneous Poisson processes) — so the
    long-run rate is exactly the requested one, and the process stays a
    pure function of the rng stream.
    """

    __slots__ = ("rng", "burst_factor", "_in_burst", "_state_until")

    def __init__(self, rng: np.random.Generator, burst_factor: float = 4.0) -> None:
        if not burst_factor >= 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        self.rng = rng
        self.burst_factor = float(burst_factor)
        self._in_burst = False
        #: None until the first draw seeds the initial (quiet) sojourn
        self._state_until: Optional[float] = None

    def _sojourn_mean(self) -> float:
        return MEAN_CYCLE * (ON_FRACTION if self._in_burst else 1.0 - ON_FRACTION)

    def _advance_state(self, t: float) -> float:
        """Move to the state ``t`` falls in; return when that state ends."""
        until = self._state_until
        if until is None:
            self._in_burst = False
            until = float(self.rng.exponential(self._sojourn_mean()))
        while t >= until:
            self._in_burst = not self._in_burst
            until += float(self.rng.exponential(self._sojourn_mean()))
        self._state_until = until
        return until

    def next_interval(self, now: float, rate: float) -> float:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        quiet = rate / (ON_FRACTION * self.burst_factor + 1.0 - ON_FRACTION)
        t = now
        work = float(self.rng.exponential(1.0))
        while True:
            until = self._advance_state(t)
            state_rate = quiet * self.burst_factor if self._in_burst else quiet
            segment_capacity = state_rate * (until - t)
            if work <= segment_capacity:
                return (t + work / state_rate) - now
            work -= segment_capacity
            t = until


def make_process(
    kind: str, rng: np.random.Generator, burst_factor: float = 4.0
) -> ArrivalProcess:
    """Build the arrival process for one node."""
    if kind == "poisson":
        return PoissonProcess(rng)
    if kind == "mmpp":
        return MmppProcess(rng, burst_factor)
    raise ValueError(f"unknown arrival process {kind!r}")
