"""Opt-in DES-kernel profiler: where does the run loop spend its time?

Before changing the kernel for speed one needs evidence of *where* the
schedule-pop loop burns host time.  This profiler attributes every
processed kernel event to ``(event kind, consumer site)``:

* **kind** — the event's class (``Timeout``, ``Event``, ``Process``,
  ``AnyOf``, ...), i.e. the kernel mechanism exercised;
* **site** — the callback's consumer: a process name with indices
  normalised away (``dispatch[3][1]`` -> ``dispatch``, ``n7.heartbeat``
  -> ``n*.heartbeat``), the owning object's class for unnamed bound
  methods, or the function's qualname for plain callables.  Process
  names are the simulation's endpoints (dispatchers, heartbeats,
  arrival planes, workers), so the site axis is the per-endpoint view.

Two modes:

* **counters** (default) — pure event counts.  Counting does not touch
  the schedule, so a profiled run's timeline is byte-identical to an
  unprofiled one (pinned in ``tests/rpc/test_equivalence.py``);
* **wall** — additionally meters host nanoseconds per callback via
  ``perf_counter_ns``.  The timeline is still byte-identical; only the
  recorded nanosecond values are host-dependent (they never feed back
  into the simulation).

Exports: :meth:`KernelProfiler.folded` (folded-stack flamegraph text,
``kernel;<kind>;<site> <weight>``) and :meth:`KernelProfiler.write_chrome`
(a Chrome ``trace_event`` overlay loadable in Perfetto).  Both are
byte-deterministic in counters mode.

The hook is strictly additive: ``Environment.run`` pays exactly one
``is None`` guard per event when no profiler is installed; with one it
hands each fired event's callbacks to :meth:`KernelProfiler.dispatch`,
so all the accounting lives here and the kernel has a single run loop.
"""

from __future__ import annotations

import json
import re
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.sim.events import Event

__all__ = ["KernelProfiler", "site_of"]

#: strip process-name indices: brackets first, then digit runs
_BRACKETS = re.compile(r"\[[^\]]*\]")
_DIGITS = re.compile(r"\d+")


def _wall_clock() -> int:
    """Host nanoseconds (wall mode only; never feeds the simulation)."""
    return time.perf_counter_ns()  # check: allow[det-wall-clock] -- host-side profiling attribution only; the value is reported, never scheduled


def normalize_site(name: str) -> str:
    """Collapse per-instance indices so sites aggregate across nodes."""
    return _DIGITS.sub("*", _BRACKETS.sub("", name))


def site_of(callback: Callable[..., Any]) -> str:
    """Deterministic consumer label for one kernel callback."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None)
        if isinstance(name, str):
            return normalize_site(name)
        return type(owner).__name__
    qualname = getattr(callback, "__qualname__", None) or getattr(
        callback, "__name__", "callback"
    )
    return normalize_site(qualname)


class KernelProfiler:
    """Per-event-type / per-site accounting for the kernel run loop."""

    __slots__ = (
        "wall", "clock", "counts", "wall_ns", "event_counts", "events",
    )

    def __init__(self, wall: bool = False) -> None:
        self.wall = bool(wall)
        #: host-nanosecond clock metered around callbacks; None = counters only
        self.clock: Optional[Callable[[], int]] = _wall_clock if wall else None
        #: (kind, site) -> callback dispatch count
        self.counts: Dict[Tuple[str, str], int] = {}
        #: (kind, site) -> host nanoseconds inside the callback (wall mode)
        self.wall_ns: Dict[Tuple[str, str], int] = {}
        #: event kind -> processed-event count (callback-free events too)
        self.event_counts: Dict[str, int] = {}
        self.events = 0

    def install(self, env: Any) -> "KernelProfiler":
        """Attach to an :class:`~repro.sim.core.Environment`."""
        env.profiler = self
        return self

    def dispatch(
        self, event: "Event", callbacks: List[Callable[["Event"], None]]
    ) -> None:
        """Account one fired event and run its callbacks.

        ``Environment.run`` calls this in place of its plain callback
        loop.  It only counts (and, in wall mode, meters host time
        around) the callbacks — it never touches the schedule, so the
        processed event sequence is byte-identical to an unprofiled run.
        """
        kind = type(event).__name__
        self.events += 1
        event_counts = self.event_counts
        event_counts[kind] = event_counts.get(kind, 0) + 1
        counts = self.counts
        wall_ns = self.wall_ns
        clock = self.clock
        for callback in callbacks:
            key = (kind, site_of(callback))
            counts[key] = counts.get(key, 0) + 1
            if clock is None:
                callback(event)
            else:
                t0 = clock()
                callback(event)
                wall_ns[key] = wall_ns.get(key, 0) + clock() - t0

    # -- snapshots -------------------------------------------------------

    def _weight(self, key: Tuple[str, str]) -> int:
        if self.wall:
            return self.wall_ns.get(key, 0) // 1000  # microseconds
        return self.counts[key]

    def snapshot(self, top: int = 12) -> Dict[str, Any]:
        """JSON-able summary (experiment ``extra["prof"]``)."""
        ranked = sorted(
            self.counts, key=lambda key: (-self._weight(key), key)
        )
        rows = []
        for key in ranked[:top]:
            row: Dict[str, Any] = {
                "event": key[0], "site": key[1], "count": self.counts[key],
            }
            if self.wall:
                row["wall_us"] = self.wall_ns.get(key, 0) // 1000
            rows.append(row)
        return {
            "events": self.events,
            "mode": "wall" if self.wall else "counters",
            "by_event": dict(sorted(self.event_counts.items())),
            "sites": len(self.counts),
            "top": rows,
        }

    def folded(self) -> List[str]:
        """Folded-stack flamegraph lines (``flamegraph.pl``-compatible).

        Weight is the dispatch count in counters mode and microseconds
        in wall mode; lines sort lexicographically for byte determinism.
        """
        return [
            f"kernel;{kind};{site} {self._weight((kind, site))}"
            for kind, site in sorted(self.counts)
        ]

    def write_folded(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.folded():
                fh.write(line + "\n")

    def write_chrome(self, path: str) -> None:
        """Chrome ``trace_event`` overlay: one complete slice per site.

        Slices are laid out sequentially (duration = weight in
        microseconds), grouped one thread per event kind — a loadable
        flamegraph-style picture of where kernel events went, not a
        timeline of when.
        """
        kinds = sorted({kind for kind, _ in self.counts})
        tid_of = {kind: i + 1 for i, kind in enumerate(kinds)}
        events: List[Dict[str, Any]] = [
            {
                "args": {"name": "kernel-profile"},
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
            }
        ]
        cursors = {kind: 0 for kind in kinds}
        for kind, site in sorted(self.counts):
            weight = max(1, self._weight((kind, site)))
            events.append(
                {
                    "args": {"count": self.counts[(kind, site)]},
                    "cat": "kernel",
                    "dur": weight,
                    "name": f"{kind};{site}",
                    "ph": "X",
                    "pid": 0,
                    "tid": tid_of[kind],
                    "ts": cursors[kind],
                }
            )
            cursors[kind] += weight
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"displayTimeUnit": "ms", "traceEvents": events},
                fh, sort_keys=True, separators=(",", ":"),
            )
            fh.write("\n")
