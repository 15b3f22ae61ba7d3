"""Scenario scripts: declarative mid-run retargeting of the load shape.

A :class:`Scenario` is a sorted tuple of :class:`Phase` entries.  Each
phase activates at an exact simulated timestamp (relative to run start)
and retargets any of: the arrival-rate multiplier, the Zipf skew, and
the hotspot rotation.  The engine applies phases with absolute-time
timeouts, so activation happens at *exactly* ``phase.at`` — pinned by
``tests/traffic/test_scenarios.py``.

Three built-in scripts (all parameterised by the run horizon):

* **flash-crowd** — steady load, a sudden surge to ``peak×`` for the
  middle of the run, then back to steady (does the backlog built during
  the surge drain, or has the surge pushed the system past saturation?);
* **hotspot-migration** — constant rate, skewed popularity whose hot
  object jumps ``moves`` times over the run (does the scheduler's
  contention state track the move, or keep paying for the old hotspot?);
* **diurnal** — a staircase approximation of a day/night cycle between
  ``trough×`` and ``1×`` of the nominal rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["Phase", "Scenario", "SCENARIOS", "make_scenario"]


@dataclass(frozen=True)
class Phase:
    """One retargeting step.  ``None`` leaves a knob unchanged."""

    at: float                           # activation time from run start (s)
    name: str
    rate_scale: float = 1.0
    zipf_s: Optional[float] = None
    hotspot_shift: Optional[int] = None


@dataclass(frozen=True)
class Scenario:
    """A named, sorted phase schedule."""

    name: str
    phases: Tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        ats = [p.at for p in self.phases]
        if ats != sorted(ats) or len(set(ats)) != len(ats):
            raise ValueError(f"phase times must be strictly increasing: {ats}")
        if ats[0] != 0.0:
            raise ValueError(f"first phase must start at 0, got {ats[0]}")
        for p in self.phases:
            if p.rate_scale <= 0:
                raise ValueError(f"phase {p.name}: rate_scale must be > 0")

    def phase_at(self, t: float) -> Phase:
        """The phase active at relative time ``t``."""
        active = self.phases[0]
        for phase in self.phases:
            if phase.at <= t:
                active = phase
            else:
                break
        return active


def _flash_crowd(horizon: float, peak: float = 4.0) -> Scenario:
    return Scenario(
        "flash-crowd",
        (
            Phase(0.0, "steady", 1.0),
            Phase(round(horizon * 0.4, 9), "surge", peak),
            Phase(round(horizon * 0.7, 9), "recovery", 1.0),
        ),
    )


def _hotspot_migration(
    horizon: float, moves: int = 4, zipf_s: float = 1.2
) -> Scenario:
    step = horizon / moves
    phases = tuple(
        Phase(
            round(i * step, 9), f"hot{i}", 1.0,
            zipf_s=zipf_s if i == 0 else None,
            hotspot_shift=i,
        )
        for i in range(moves)
    )
    return Scenario("hotspot-migration", phases)


def _diurnal(horizon: float, trough: float = 0.25, steps: int = 6) -> Scenario:
    """Staircase day/night cycle: one full cosine period over the run."""
    if steps < 2:
        raise ValueError(f"diurnal needs steps >= 2, got {steps}")
    phases = []
    for i in range(steps):
        # Peak at the run's middle, troughs at both ends.
        cycle = 0.5 - 0.5 * math.cos(2.0 * math.pi * i / steps)
        scale = trough + (1.0 - trough) * cycle
        phases.append(Phase(round(i * horizon / steps, 9), f"d{i}", round(scale, 6)))
    return Scenario("diurnal", tuple(phases))


SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "flash-crowd": _flash_crowd,
    "hotspot-migration": _hotspot_migration,
    "diurnal": _diurnal,
}


def make_scenario(name: str, horizon: float, **kwargs: Any) -> Scenario:
    """Instantiate a built-in scenario for a run of ``horizon`` seconds."""
    if horizon is None or horizon <= 0:
        raise ValueError(f"scenarios need a positive horizon, got {horizon}")
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}"
        )
    return builder(horizon, **kwargs)
