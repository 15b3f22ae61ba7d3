"""Metric-space network topologies with static link delays.

A :class:`Topology` places ``num_nodes`` nodes i.i.d. uniformly in the
unit square (the paper's "nodes scattered in a metric space") and derives
a symmetric delay matrix, affinely mapping metric distance onto the
paper's [1 ms, 50 ms] link-delay band.

All delays are deterministic functions of (seed, num_nodes): the network
is *static*, exactly as in §IV-A of the paper.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Topology", "MS"]

#: One millisecond in simulation time units (we simulate in seconds).
MS = 1e-3


class Topology:
    """Node positions plus the static pairwise delay matrix."""

    def __init__(
        self,
        num_nodes: int,
        rng: np.random.Generator,
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
        self.positions = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
        self.delays = self._delay_matrix()
        # Hot-path memoisation: the simulation pays a delay lookup per
        # message, and scalar-indexing the numpy matrix (plus the float()
        # coercion) costs several times a plain nested-list index.
        # ``tolist`` preserves the exact float values, so behaviour is
        # bit-identical to reading the matrix.  ``Network.send`` indexes
        # the rows itself: ``delay_rows[src][dst]``.
        self.delay_rows: list[list[float]] = self.delays.tolist()
        n = self.num_nodes
        self._mean_delay: float = (
            float(self.delays.sum() / (n * (n - 1))) if n >= 2 else 0.0
        )

    # -- construction -------------------------------------------------------

    def _delay_matrix(self) -> np.ndarray:
        pos = self.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        peak = dist.max()
        if peak <= 0.0:  # single node or all co-located
            scaled = np.zeros_like(dist)
        else:
            scaled = dist / peak
        delays = self.min_delay + scaled * (self.max_delay - self.min_delay)
        np.fill_diagonal(delays, 0.0)
        return delays

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
