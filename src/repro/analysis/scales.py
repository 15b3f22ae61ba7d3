"""Experiment scale presets.

``quick`` keeps a full reproduction pass in the minutes range on a
laptop; ``full`` matches the paper's deployment axis (10-80 nodes).  The
per-benchmark worker counts keep the offered load in the regime the
paper's evaluation describes (hundreds of transactions in flight per run,
five-to-ten shared objects per node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["BENCHMARKS", "SCALES", "SWEEP_NODES", "Scale", "parse_nodes"]

#: canonical benchmark order — the paper's Table I / Figure 4-6 order
BENCHMARKS: Tuple[str, ...] = ("vacation", "bank", "ll", "rbtree", "bst", "dht")

#: read fractions: low contention = 90% reads, high = 10% (§IV-A)
CONTENTION = {"low": 0.9, "high": 0.1}


@dataclass(frozen=True)
class Scale:
    name: str
    node_counts: Tuple[int, ...]
    horizon: float
    workers_per_node: int
    #: node count used for single-deployment artefacts (Table I)
    table_nodes: int
    table_commits: int  # Table I stop condition ("ten thousand transactions")
    seeds: Tuple[int, ...] = (1,)


SCALES: Dict[str, Scale] = {
    "smoke": Scale(
        name="smoke", node_counts=(4, 8), horizon=4.0,
        workers_per_node=2, table_nodes=8, table_commits=150,
    ),
    "quick": Scale(
        name="quick", node_counts=(4, 8, 16, 24), horizon=10.0,
        workers_per_node=2, table_nodes=16, table_commits=600,
    ),
    "full": Scale(
        name="full", node_counts=(10, 20, 30, 40, 50, 60, 70, 80),
        horizon=20.0, workers_per_node=2, table_nodes=80,
        table_commits=10_000,
    ),
}

#: the bench CLIs' cluster-size sweep — the paper's deployment axis
#: endpoints at doubling steps (``--nodes`` sweep default)
SWEEP_NODES: Tuple[int, ...] = (10, 20, 40, 80)


def parse_nodes(spec: str) -> Tuple[int, ...]:
    """Parse a ``--nodes`` CLI spec into a node-count axis.

    Accepts a single count (``"12"``), a comma list (``"10,20,40,80"``),
    or a scale-preset name (``"quick"`` -> that preset's node axis).
    """
    spec = spec.strip()
    if spec in SCALES:
        return SCALES[spec].node_counts
    try:
        counts = tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad --nodes spec {spec!r}") from None
    if not counts or any(c < 1 for c in counts):
        raise ValueError(f"bad --nodes spec {spec!r}")
    return counts
