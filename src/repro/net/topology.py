"""Metric-space network topologies with static link delays.

A :class:`Topology` places ``num_nodes`` nodes i.i.d. uniformly in the
unit square (the paper's "nodes scattered in a metric space") and derives
a symmetric delay matrix, affinely mapping metric distance onto the
paper's [1 ms, 50 ms] link-delay band.

All delays are deterministic functions of (seed, num_nodes): the network
is *static*, exactly as in §IV-A of the paper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.sim.rng import Stream

__all__ = ["Topology", "MS", "pairwise_sum"]

#: One millisecond in simulation time units (we simulate in seconds).
MS = 1e-3


class Topology:
    """Node positions plus the static pairwise delay matrix.

    Built in plain Python with numpy's float operations, in numpy's order,
    so the rows equal what ``numpy`` computes from the same positions bit
    for bit; ``positions`` and ``delays`` are numpy arrays built on access.
    """

    def __init__(
        self,
        num_nodes: int,
        rng: Stream,
        min_delay: float = 1.0 * MS,
        max_delay: float = 50.0 * MS,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"need >= 1 node, got {num_nodes}")
        if not 0 < min_delay <= max_delay:
            raise ValueError(f"need 0 < min_delay <= max_delay, got [{min_delay}, {max_delay}]")
        self.num_nodes = num_nodes
        self.min_delay = float(min_delay)
        self.max_delay = float(max_delay)
        # ``uniform(size=(n, 2))`` fills in C order: x0, y0, x1, y1, ...
        coords = [float(c) for c in rng.uniform(0.0, 1.0, size=2 * num_nodes)]
        self._positions: List[Tuple[float, float]] = list(zip(coords[0::2], coords[1::2]))
        #: one row per source node; ``Network.send`` indexes the rows
        #: itself (``delay_rows[src][dst]``), a plain nested-list index
        #: per message
        self.delay_rows: List[List[float]] = self._delay_rows()
        n = self.num_nodes
        self._mean_delay: float = (
            pairwise_sum([d for row in self.delay_rows for d in row]) / (n * (n - 1))
            if n >= 2 else 0.0
        )

    # -- construction -------------------------------------------------------

    def _delay_rows(self) -> List[List[float]]:
        """Euclidean distance scaled by the farthest pair onto
        ``[min_delay, max_delay]``, zero on the diagonal: ``sqrt`` of
        ``dx*dx + dy*dy``, then ``min + (d / peak) * (max - min)``, as
        numpy evaluates it elementwise."""
        pos = self._positions
        dist = [
            [math.sqrt((xi - xj) * (xi - xj) + (yi - yj) * (yi - yj)) for xj, yj in pos]
            for xi, yi in pos
        ]
        peak = max(max(row) for row in dist)
        lo = self.min_delay
        span = self.max_delay - lo
        rows = [
            # a single node, or all co-located: every scaled distance is 0
            [lo + d / peak * span for d in row] if peak > 0.0 else [lo] * len(row)
            for row in dist
        ]
        for i, row in enumerate(rows):
            row[i] = 0.0
        return rows

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates, an ``(n, 2)`` array (built on access)."""
        import numpy as np

        return np.array(self._positions, dtype=np.float64)

    @property
    def delays(self) -> np.ndarray:
        """The delay matrix, an ``(n, n)`` array (built on access)."""
        import numpy as np

        return np.array(self.delay_rows, dtype=np.float64)

    # -- queries -------------------------------------------------------------

    def delay(self, src: int, dst: int) -> float:
        """One-way link delay between ``src`` and ``dst`` (0 for src==dst)."""
        return self.delay_rows[src][dst]

    def mean_delay(self) -> float:
        """Average off-diagonal delay (0 for a single node).

        Memoised at construction: the proxy's holder-remaining estimate
        reads this once per conflict, and delays are static (§IV-A).
        """
        return self._mean_delay

    def verify_metric(self, atol: float = 1e-9) -> bool:
        """Check symmetry + triangle inequality of the *distance* metric.

        (The affine delay map adds ``min_delay`` to every hop, so delays
        themselves satisfy the triangle inequality a fortiori.)
        """
        import numpy as np

        pos = self.positions
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diff**2).sum(axis=-1))
        if not np.allclose(d, d.T, atol=atol):
            return False
        # d[i,k] <= d[i,j] + d[j,k] for all i,j,k (vectorised).
        lhs = d[:, None, :]
        rhs = d[:, :, None] + d[None, :, :]
        return bool(np.all(lhs <= rhs + atol))

    def __repr__(self) -> str:
        return (
            f"<Topology n={self.num_nodes} "
            f"delay=[{self.min_delay * 1e3:.0f}ms, {self.max_delay * 1e3:.0f}ms]>"
        )


def pairwise_sum(values: List[float]) -> float:
    """``numpy.add.reduce`` over a contiguous float64 run: blocks of up to
    128 values summed in eight interleaved lanes, longer runs split in two
    at a multiple of eight (numpy's ``pairwise_sum``)."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        lanes = values[:8]
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                lanes[j] += values[i + j]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for v in values[end:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
