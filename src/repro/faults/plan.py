"""Fault timelines: crash/partition schedules and per-message fates.

A :class:`FaultPlan` is built once per cluster from the config-seeded
``"faults"`` RNG stream.  The schedule part (crash and partition windows)
is generated eagerly over ``[0, schedule_horizon)`` at construction; the
per-message part (drop / duplicate / extra delay) draws lazily from the
same stream, in network send order.  Both are therefore pure functions of
``(seed, FaultConfig, num_nodes)``: identical seeds give identical fault
timelines, which is what makes chaos runs bit-reproducible.

Every fault class shares that one stream, so turning one class on or
off re-deals the others: enabling crashes shifts the draws the partition
schedule starts from (it moves every partition window), and a nonzero
drop rate consumes a draw per message ahead of the duplicate and delay
draws (with a seed-7 stream and duplicate rate 0.2, raising the drop
rate from 0 to 0.05 changes 66 of the first 200 duplicate decisions).
Bisecting a failing plan by fault class therefore changes more than the
class it removes.

Crash model: **fail-isolate**.  A crashed node exchanges no messages for
the duration of its window (sends are dropped at the source, in-flight
deliveries are dropped at the destination), but its volatile state — the
object store, directory shard, clocks — survives, as with a process that
is SIGSTOPped or cut off by its NIC.  Node-local loopback traffic is
exempt: the process itself keeps running, it is merely unreachable.
Each crash is drawn from the end of the one before, so the crash
windows never overlap one another; they may overlap partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.config import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.rng import Stream

__all__ = ["CrashWindow", "FaultPlan", "MessageFate", "PartitionWindow"]


@dataclass(frozen=True)
class CrashWindow:
    """Node ``node`` is unreachable during ``[start, end)``."""

    node: int
    start: float
    end: float

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class PartitionWindow:
    """Links between ``group`` and its complement are cut in ``[start, end)``."""

    group: Tuple[int, ...]
    start: float
    end: float

    def blocks(self, a: int, b: int, t: float) -> bool:
        if not self.start <= t < self.end:
            return False
        return (a in self.group) != (b in self.group)


@dataclass(frozen=True)
class MessageFate:
    """What the plan decided for one message at send time."""

    #: None = delivered; otherwise "drop" | "partition" | "src_crashed"
    drop_reason: Optional[str] = None
    duplicated: bool = False
    extra_delay: float = 0.0

    @property
    def delivered(self) -> bool:
        return self.drop_reason is None


_CLEAN = MessageFate()


class FaultPlan:
    """The concrete fault timeline for one simulated run."""

    def __init__(
        self,
        config: FaultConfig,
        rng: Stream,
        num_nodes: int,
    ) -> None:
        self.config = config
        self.num_nodes = int(num_nodes)
        self._rng = rng
        # Generation order is fixed (crashes, then partitions, then lazy
        # per-message draws) so the stream decomposes deterministically.
        self.crashes: List[CrashWindow] = self._gen_crashes(rng)
        self.partitions: List[PartitionWindow] = self._gen_partitions(rng)

    # -- schedule generation --------------------------------------------

    def _gen_crashes(self, rng: Stream) -> List[CrashWindow]:
        cfg = self.config
        windows: List[CrashWindow] = []
        if cfg.crash_rate <= 0.0 or self.num_nodes < 2:
            return windows
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / cfg.crash_rate))
            if t >= cfg.schedule_horizon:
                break
            node = int(rng.integers(self.num_nodes))
            duration = cfg.crash_duration * float(rng.uniform(0.5, 1.5))
            windows.append(CrashWindow(node, t, t + duration))
            t += duration
        return windows

    def _gen_partitions(self, rng: Stream) -> List[PartitionWindow]:
        cfg = self.config
        windows: List[PartitionWindow] = []
        if cfg.partition_rate <= 0.0 or self.num_nodes < 3:
            return windows
        max_group = max(1, self.num_nodes // 2)
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / cfg.partition_rate))
            if t >= cfg.schedule_horizon:
                break
            size = int(rng.integers(1, max_group + 1))
            group = tuple(
                sorted(int(i) for i in rng.choice(self.num_nodes, size=size, replace=False))
            )
            duration = cfg.partition_duration * float(rng.uniform(0.5, 1.5))
            windows.append(PartitionWindow(group, t, t + duration))
        return windows

    # -- schedule queries -----------------------------------------------

    def is_crashed(self, node: int, t: float) -> bool:
        return any(w.node == node and w.active(t) for w in self.crashes)

    def link_blocked(self, a: int, b: int, t: float) -> bool:
        return any(w.blocks(a, b, t) for w in self.partitions)

    # -- per-message decisions ------------------------------------------

    def message_fate(self, src: int, dst: int, now: float) -> MessageFate:
        """Decide one remote message's fate.

        Draws only for the probabilistic classes that are enabled, in the
        order drop, duplicate, extra delay, all from the one ``"faults"``
        stream: enabling one class shifts the draws every later class
        sees, so it does perturb their sequences (module docstring).
        """
        cfg = self.config
        if src == dst:
            # Loopback never fails: a crashed node is isolated, not dead.
            return _CLEAN
        if self.is_crashed(src, now):
            return MessageFate(drop_reason="src_crashed")
        if self.link_blocked(src, dst, now):
            return MessageFate(drop_reason="partition")
        rng = self._rng
        if cfg.drop_rate > 0.0 and rng.random() < cfg.drop_rate:
            return MessageFate(drop_reason="drop")
        duplicated = cfg.duplicate_rate > 0.0 and rng.random() < cfg.duplicate_rate
        extra = 0.0
        if (
            cfg.extra_delay_rate > 0.0
            and cfg.extra_delay_max > 0.0
            and rng.random() < cfg.extra_delay_rate
        ):
            extra = float(rng.uniform(0.0, cfg.extra_delay_max))
        if not duplicated and extra == 0.0:
            return _CLEAN
        return MessageFate(duplicated=duplicated, extra_delay=extra)

    def deliver_blocked(self, dst: int, t: float) -> bool:
        """True when an in-flight message must be dropped at delivery
        (the destination is crashed at arrival time).  Partitions do not
        affect in-flight messages: they were already on the wire."""
        return self.is_crashed(dst, t)

    def __repr__(self) -> str:
        return (
            f"<FaultPlan nodes={self.num_nodes} crashes={len(self.crashes)} "
            f"partitions={len(self.partitions)}>"
        )
