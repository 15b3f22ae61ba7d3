"""The stability detector: is the offered load sustainable?

Busch et al.'s stable-scheduling framework (arXiv:2208.07359) gives the
pass/fail criterion for open-loop load: a schedule is *stable* when
queue depth stays bounded under the (adversarially constrained) arrival
process.  The detector reduces a run to that verdict:

* the :class:`StabilityMonitor` integrates every admission queue's
  time-weighted depth into fixed windows (the *windowed* view is what
  separates "transient burst that drained" from "backlog that keeps
  growing");
* :func:`stability_verdict` is the pure divergence test over those
  window means — the tail of the run must not be growing away from its
  head, and admission control must not be shedding a material fraction
  of the offered load (a queue kept "bounded" by dropping work is not a
  stable server, it is a saturated one).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence

from repro.sim import Environment

__all__ = ["StabilityMonitor", "stability_verdict"]


def stability_verdict(
    window_means: Sequence[float],
    shed_rate: float = 0.0,
    *,
    min_windows: int = 4,
    abs_floor: float = 2.0,
    growth_limit: float = 2.0,
    shed_tolerance: float = 0.05,
) -> Dict[str, Any]:
    """Reduce windowed queue-depth means to a ``stable: bool`` verdict.

    The run is *unstable* when (a) more than ``shed_tolerance`` of the
    offered load was shed, or (b) the mean depth over the run's second
    half exceeds both ``abs_floor`` (an always-acceptable bound: a
    couple of queued transactions is a working pipeline, not a backlog)
    and ``growth_limit ×`` the first half's mean (depth kept growing
    instead of plateauing).  Runs shorter than ``min_windows`` windows
    fall back to the absolute bound alone.
    """
    means = [float(m) for m in window_means]
    if shed_rate > shed_tolerance:
        return {
            "stable": False, "reason": "shedding",
            "head_depth": _mean(means[: max(1, len(means) // 2)]),
            "tail_depth": _mean(means[len(means) // 2:]) if means else 0.0,
            "shed_rate": float(shed_rate),
        }
    if len(means) < min_windows:
        peak = max(means) if means else 0.0
        stable = peak <= abs_floor
        return {
            "stable": stable,
            "reason": "short-run-bounded" if stable else "short-run-deep",
            "head_depth": _mean(means), "tail_depth": peak,
            "shed_rate": float(shed_rate),
        }
    half = len(means) // 2
    head = _mean(means[:half])
    tail = _mean(means[half:])
    bounded = tail <= abs_floor or tail <= growth_limit * head
    return {
        "stable": bounded,
        "reason": "bounded" if bounded else "divergent",
        "head_depth": head, "tail_depth": tail,
        "shed_rate": float(shed_rate),
    }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class StabilityMonitor:
    """Windowed, time-weighted cluster queue-depth series.

    Runs as a simulation process: every ``window`` simulated seconds it
    appends the time-weighted mean depth (summed over all admission
    queues) of the window just ended.  Reading the cumulative integral
    from each queue's gauge — rather than point-sampling ``len(queue)``
    — means a burst that arrived and drained *within* a window still
    shows up in its mean.
    """

    def __init__(self, env: Environment, queues: Sequence[Any], window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.env = env
        self.queues = list(queues)
        self.window = float(window)
        self.window_means: List[float] = []
        self._stopped = False

    def _cumulative_area(self, now: float) -> float:
        # TimeWeighted.average is area/span with span anchored at the
        # queue's construction time; the queues are built at run start,
        # the same instant this process starts, so the anchors agree.
        total = 0.0
        for q in self.queues:
            span = now - q.depth._start
            if span > 0:
                total += q.depth.average(now) * span
        return total

    def run(self) -> Generator[Any, Any, None]:
        env = self.env
        prev_area = self._cumulative_area(env.now)
        while True:
            yield self.window
            if self._stopped:
                return
            area = self._cumulative_area(env.now)
            self.window_means.append((area - prev_area) / self.window)
            prev_area = area

    def stop(self) -> None:
        self._stopped = True

