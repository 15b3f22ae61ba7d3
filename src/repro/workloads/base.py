"""Workload interface.

A workload owns its shared objects (created in :meth:`Workload.setup`) and
produces operations: transaction bodies plus metadata.  ``read_fraction``
realises the paper's contention knob — 0.9 = low contention (90% read
transactions), 0.1 = high contention.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster
    from repro.sim.rng import Stream

__all__ = ["Op", "Workload"]


def zipf_choice(
    rng: Stream, n: int, s: float, size: int = 1,
    replace: bool = True,
) -> List[int]:
    """Draw indices from a bounded Zipf(s) distribution over [0, n).

    ``s = 0`` is uniform; larger ``s`` concentrates the mass on low
    indices (hot spots).  Unlike ``rng.zipf`` the support is bounded, so
    it is usable for key selection directly.  The draw is the traffic
    plane's :func:`~repro.traffic.popularity.zipf_draw` (one cached table
    per ``(n, s)``).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    # Lazy: a default cell's import graph leaves repro.traffic out
    from repro.traffic.popularity import zipf_draw

    return zipf_draw(rng, n, s, size, replace)


@dataclass
class Op:
    """One operation drawn from a workload's mix."""

    body: Callable[..., Generator]
    args: Tuple[Any, ...]
    profile: str
    is_read: bool


class Workload(abc.ABC):
    """Base class for the six benchmarks."""

    #: short machine name ("bank", "vacation", ...)
    name: str = "base"

    def __init__(
        self, read_fraction: float = 0.9, payload_size: Optional[int] = None
    ) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
        if payload_size is not None and payload_size < 0:
            raise ValueError(f"payload_size must be >= 0, got {payload_size}")
        #: declared bulk-byte footprint of this workload's objects on the
        #: payload plane (None = use PayloadConfig.size; ignored when the
        #: plane is disabled)
        self.payload_size = payload_size
        self.read_fraction = float(read_fraction)
        self._setup_done = False
        #: optional repro.traffic PopularityModel; installed by the
        #: open-loop executor, None under closed loop (byte-identical path)
        self.popularity = None

    # -- object selection (popularity-aware) ----------------------------

    def pick_indices(
        self, rng: Stream, n: int, size: int, replace: bool = True
    ) -> Sequence[int]:
        """Draw ``size`` object indices from [0, n).

        Uniform (the exact pre-traffic draw, byte-for-byte) unless a
        popularity model is installed, in which case selection is
        Zipf-skewed towards the low indices.
        """
        if self.popularity is None:
            return rng.choice(n, size, replace=replace)
        return self.popularity.pick_many(rng, n, size, replace=replace)

    def pick_key(self, rng: Stream, n: int) -> int:
        """Draw one key from [0, n) (uniform unless popularity-skewed)."""
        if self.popularity is None:
            return int(rng.integers(0, n))
        return self.popularity.pick(rng, n)

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def create_objects(self, cluster: Cluster, rng: Stream) -> None:
        """Allocate the shared objects (called once)."""

    @abc.abstractmethod
    def make_read_op(self, node: int, rng: Stream) -> Op:
        """Draw a read-only transaction."""

    @abc.abstractmethod
    def make_write_op(self, node: int, rng: Stream) -> Op:
        """Draw a write transaction (parent + closed-nested children)."""

    # ------------------------------------------------------------------

    def setup(self, cluster: Cluster, rng: Stream) -> None:
        if self._setup_done:
            raise RuntimeError(f"workload {self.name} set up twice")
        self.create_objects(cluster, rng)
        self._setup_done = True

    def make_op(self, node: int, rng: Stream) -> Op:
        """Draw from the read/write mix."""
        if not self._setup_done:
            raise RuntimeError(f"workload {self.name} used before setup()")
        if rng.random() < self.read_fraction:
            return self.make_read_op(node, rng)
        return self.make_write_op(node, rng)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} read={self.read_fraction:.0%}>"
