"""Cell specifications and content-addressed cell keys.

A :class:`CellSpec` captures *everything* that determines an experiment
cell's outcome: the workload name and kwargs, the full
:class:`~repro.core.config.ClusterConfig`, the read fraction, the worker
count and the horizon.  Because the simulation is seed-deterministic,
two specs with equal key are guaranteed to produce equal results — the
key is therefore a valid content address for the on-disk cache.

The key hashes the canonical JSON of the spec dict *plus*
``repro.__version__``, so any release that could change simulation
behaviour orphans every old cache entry instead of serving stale rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro import __version__
from repro.core.cluster import reset_run_ids
from repro.core.config import ClusterConfig
from repro.core.experiment import ExperimentResult, run_experiment

__all__ = ["CellSpec", "canonical_json", "cell_key"]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, ``str()`` fallback.

    Every byte-identity guarantee in this package reduces to this one
    serialisation, so cache files, sweep digests and the pinned
    jobs-N-vs-serial test all go through it.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


@dataclass(frozen=True)
class CellSpec:
    """One independent experiment cell (the unit of parallel fan-out)."""

    workload: str
    config: ClusterConfig
    read_fraction: float = 0.9
    workers_per_node: int = 2
    horizon: Optional[float] = 20.0
    stop_after_commits: Optional[int] = None
    workload_kwargs: Optional[Dict[str, Any]] = None

    @property
    def cacheable(self) -> bool:
        """Cells with the obs layer enabled are never cached: their JSONL
        export (``--trace-out``) is a side effect a cache hit would
        silently skip, so they always recompute."""
        return not self.config.obs.enabled

    def describe(self) -> Dict[str, Any]:
        """The spec as a plain dict (the cache-key payload)."""
        return {
            "workload": self.workload,
            "config": asdict(self.config),
            "read_fraction": self.read_fraction,
            "workers_per_node": self.workers_per_node,
            "horizon": self.horizon,
            "stop_after_commits": self.stop_after_commits,
            "workload_kwargs": dict(self.workload_kwargs or {}),
        }

    def run(self) -> ExperimentResult:
        """Execute the cell (in whatever process we are in).

        Restarts the process-global transaction and message ids first, so
        a cell's results and exported traces are identical whether it runs
        first, later, serially, or inside a pool worker.
        """
        reset_run_ids()
        return run_experiment(
            self.workload,
            self.config,
            read_fraction=self.read_fraction,
            workers_per_node=self.workers_per_node,
            horizon=self.horizon,
            stop_after_commits=self.stop_after_commits,
            workload_kwargs=dict(self.workload_kwargs or {}) or None,
        )


def cell_key(spec: CellSpec, version: str = __version__) -> str:
    """Stable content address of a cell: sha256 over the canonical JSON
    of the full spec dict plus the package version."""
    payload = {"version": version, "spec": spec.describe()}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
