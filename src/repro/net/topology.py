"""Metric-space network topologies with static link delays.

A :class:`Topology` places ``num_nodes`` nodes in a 2-D metric space and
derives a symmetric delay matrix, affinely mapping metric distance onto the
paper's [1 ms, 50 ms] link-delay band.  Supported placements:

* ``UNIFORM`` — i.i.d. uniform positions in the unit square (default; the
  paper's "nodes scattered in a metric space"),
* ``GRID`` — a regular √N×√N grid,
* ``RING`` — nodes on a circle (maximises distance spread),
* ``CLUSTERED`` — Gaussian blobs around a few cluster heads, modelling
  rack locality.

All delays are deterministic functions of (seed, kind, num_nodes): the
network is *static*, exactly as in §IV-A of the paper.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Topology", "TopologyKind", "MS"]

#: One millisecond in simulation time units (we simulate in seconds).
MS = 1e-3


class TopologyKind(str, enum.Enum):
    UNIFORM = "uniform"
    GRID = "grid"
    RING = "ring"
    CLUSTERED = "clustered"


class Topology:
    """Node positions plus the static pairwise delay matrix."""

    def __init__(
        self,
        num_nodes: int,
        rng: np.random.Generator,
        kind: TopologyKind = TopologyKind.UNIFORM,
        min_delay: float = 1.0 * MS,
        max_delay: float = 50.0 * MS,
        num_clusters: int = 4,
        bandwidth: Optional[float] = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"need >= 1 node, got {num_nodes}")
        if not 0 < min_delay <= max_delay:
            raise ValueError(f"need 0 < min_delay <= max_delay, got [{min_delay}, {max_delay}]")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        #: per-link bandwidth baseline (bytes/second); None until the
        #: payload plane installs one — :meth:`bandwidth_of` is the
        #: per-link lookup the wire cost model binds.
        self.link_bandwidth = float(bandwidth) if bandwidth is not None else None
        self.num_nodes = num_nodes
        self.kind = TopologyKind(kind)
        self.min_delay = float(min_delay)
        self.max_delay = float(max_delay)
        self.positions = self._place(rng, num_clusters)
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

    def _place(self, rng: np.random.Generator, num_clusters: int) -> np.ndarray:
        n = self.num_nodes
        if self.kind is TopologyKind.UNIFORM:
            return rng.uniform(0.0, 1.0, size=(n, 2))
        if self.kind is TopologyKind.GRID:
            side = int(math.ceil(math.sqrt(n)))
            xs, ys = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side))
            return np.column_stack([xs.ravel(), ys.ravel()])[:n]
        if self.kind is TopologyKind.RING:
            theta = 2.0 * np.pi * np.arange(n) / n
            return 0.5 + 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
        if self.kind is TopologyKind.CLUSTERED:
            heads = rng.uniform(0.1, 0.9, size=(max(1, num_clusters), 2))
            assignment = rng.integers(0, len(heads), size=n)
            jitter = rng.normal(0.0, 0.04, size=(n, 2))
            return np.clip(heads[assignment] + jitter, 0.0, 1.0)
        raise AssertionError(f"unhandled kind {self.kind}")

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

    def bandwidth_of(self, src: int, dst: int) -> float:
        """Link bandwidth in bytes/second between ``src`` and ``dst``.

        The link structure mirrors :meth:`delay`: static and symmetric.
        Today every link shares one configured baseline (the payload
        plane's ``PayloadConfig.bandwidth``); the per-link signature is
        the extension point for heterogeneous fabrics.  Raises if no
        bandwidth was configured (payload plane off).
        """
        if self.link_bandwidth is None:
            raise ValueError("topology has no bandwidth configured")
        return self.link_bandwidth

    def distance(self, src: int, dst: int) -> float:
        """Metric distance d(n_src, n_dst)."""
        return float(np.linalg.norm(self.positions[src] - self.positions[dst]))

    def mean_delay(self) -> float:
        """Average off-diagonal delay (0 for a single node).

        Memoised at construction: the proxy's holder-remaining estimate
        reads this once per conflict, and delays are static (§IV-A).
        """
        return self._mean_delay

    def nearest_nodes(self, src: int, k: int) -> list[int]:
        """The ``k`` nodes with smallest delay from ``src`` (excluding src)."""
        order = np.argsort(self.delays[src], kind="stable")
        return [int(i) for i in order if i != src][:k]

    def to_graph(self) -> nx.Graph:
        """A complete weighted graph view (weights = delays), for analysis."""
        import networkx as nx  # lazy: only analysis code needs the graph view

        g = nx.Graph()
        for i in range(self.num_nodes):
            g.add_node(i, pos=tuple(self.positions[i]))
        for i in range(self.num_nodes):
            for j in range(i + 1, self.num_nodes):
                g.add_edge(i, j, weight=self.delay(i, j))
        return g

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
            f"<Topology {self.kind.value} n={self.num_nodes} "
            f"delay=[{self.min_delay * 1e3:.0f}ms, {self.max_delay * 1e3:.0f}ms]>"
        )
