"""The parallel sweep engine: fan out cells, merge deterministically.

Execution model (DESIGN.md §3f):

* every :class:`~repro.par.cells.CellSpec` is an independent,
  seed-deterministic simulation — the natural unit of parallelism;
* cached cells are served from the :class:`~repro.par.cache.CellCache`
  first; only missing cells are computed;
* at ``jobs=1`` missing cells run in-process, in spec order; at
  ``jobs>1`` they run across a fork-context ``ProcessPoolExecutor``;
* the merge is ordered by **cell key** (ties by spec index), never by
  completion order, and every cacheable result is normalised through
  one canonical JSON round trip — so the sweep's bytes are identical
  whether cells came from this process, a pool worker, or the cache.

Cells that export an obs JSONL (``--trace-out``) bypass the cache and
write their file from whichever process runs them: artifact routing is
per-cell, so tracing keeps working under fan-out.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.experiment import ExperimentResult
from repro.par.cache import CellCache
from repro.par.cells import CellSpec, canonical_json, cell_key

__all__ = ["CellOutcome", "SweepRun", "add_par_args", "run_cells", "run_grid"]


def _compute_cell(spec: CellSpec) -> Dict[str, Any]:
    """Worker entry point: run one cell, ship its result as a dict.

    Module-level so it pickles for the process pool; the dict (not the
    dataclass) crosses the process boundary so pooled and cached results
    take the same deserialisation path.
    """
    return spec.run().to_dict()


def _rebuild(data: Dict[str, Any], spec: CellSpec) -> ExperimentResult:
    """Reconstruct a result from its wire/cache dict.

    Cacheable results take a canonical-JSON round trip even when no
    cache is configured, so computed and cache-served sweeps are
    byte-identical (e.g. tuples in ``extra`` normalise to lists either
    way).  Obs-enabled cells never hit the cache, so they skip the round
    trip (their summaries may hold non-JSON values).
    """
    if spec.cacheable:
        data = json.loads(canonical_json(data))
    return ExperimentResult.from_dict(data)


@dataclass(frozen=True)
class CellOutcome:
    """One merged sweep entry."""

    index: int          # position in the input spec sequence
    key: str            # content address (cell_key)
    spec: CellSpec
    result: ExperimentResult
    cached: bool        # True when served from the on-disk cache


@dataclass
class SweepRun:
    """A completed sweep: outcomes in cell-key order plus cache stats."""

    outcomes: List[CellOutcome]
    computed: int
    from_cache: int
    cache_stats: Dict[str, int]

    def in_spec_order(self) -> List[CellOutcome]:
        return sorted(self.outcomes, key=lambda o: o.index)

    def results(self) -> List[ExperimentResult]:
        """Results in deterministic (cell-key) merge order."""
        return [o.result for o in self.outcomes]

    def digest(self) -> str:
        """sha256 over the canonical JSON of the merged sweep — the
        byte-identity oracle the pinned jobs-N test compares."""
        merged = [[o.key, o.result.to_dict()] for o in self.outcomes]
        return sha256(canonical_json(merged).encode("utf-8")).hexdigest()


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    cache: Optional[CellCache] = None,
) -> SweepRun:
    """Run a sweep of independent cells, possibly in parallel.

    ``jobs <= 1`` computes misses in-process (no pool, no fork);
    ``jobs > 1`` fans them across a fork-context process pool.  Either
    way the returned outcomes are ordered by cell key and byte-identical
    — parallelism and caching are pure wall-clock optimisations.
    """
    specs = list(specs)
    keys = [cell_key(spec) for spec in specs]
    if cache is None and cache_dir is not None:
        cache = CellCache(cache_dir)

    outcomes: List[Optional[CellOutcome]] = [None] * len(specs)
    pending: List[int] = []
    for i, spec in enumerate(specs):
        hit = cache.get(keys[i]) if cache is not None and spec.cacheable else None
        if hit is not None:
            outcomes[i] = CellOutcome(i, keys[i], spec, _rebuild(hit, spec), True)
        else:
            pending.append(i)

    if jobs > 1 and len(pending) > 1:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            futures = [(i, pool.submit(_compute_cell, specs[i])) for i in pending]
            computed = {i: future.result() for i, future in futures}
    else:
        computed = {i: _compute_cell(specs[i]) for i in pending}

    for i in pending:
        spec = specs[i]
        data = computed[i]
        if cache is not None and spec.cacheable:
            cache.put(keys[i], data)
        outcomes[i] = CellOutcome(i, keys[i], spec, _rebuild(data, spec), False)

    merged = sorted(
        [o for o in outcomes if o is not None], key=lambda o: (o.key, o.index)
    )
    return SweepRun(
        outcomes=merged,
        computed=len(pending),
        from_cache=len(specs) - len(pending),
        cache_stats=cache.stats() if cache is not None else {},
    )


def run_grid(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> List[ExperimentResult]:
    """:func:`run_cells`, results in spec order.

    The analysis runners (Table I, Figures 4-6, the ablations) funnel
    their grids through here, so ``--jobs`` and ``--cache-dir`` apply
    uniformly and rows come back in the order the serial loops built
    them (deterministic merge).
    """
    run = run_cells(specs, jobs=jobs, cache_dir=cache_dir)
    return [outcome.result for outcome in run.in_spec_order()]


def add_par_args(parser: argparse.ArgumentParser, default_jobs: int = 1) -> None:
    """Install the shared ``--jobs`` / ``--cache-dir`` sweep options."""
    parser.add_argument(
        "--jobs", type=int, default=default_jobs, metavar="N",
        help="worker processes for independent cells (1 = serial; the "
             "merged output is byte-identical either way)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed on-disk cell cache; reruns only compute "
             "missing cells",
    )
