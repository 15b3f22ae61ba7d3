"""Process-parallel experiment sweeps with an on-disk cell cache.

A *cell* is one independent experiment — ``(workload, ClusterConfig,
read_fraction, seed, ...)`` — and every cell in this repository is fully
seed-deterministic, which makes multi-process fan-out safe if (and only
if) the merged output is provably identical to the serial run.  This
package delivers that:

* :class:`CellSpec` — the immutable description of one cell; its
  :func:`cell_key` is a stable content hash of the full config dict plus
  ``repro.__version__``.
* :class:`CellCache` — a content-addressed on-disk result store with
  atomic writes, so re-running a sweep only computes missing cells.
* :func:`run_cells` — the engine: fans cells across a
  ``ProcessPoolExecutor`` (or runs them in-process at ``jobs=1``) and
  merges results in cell-key order, never completion order.  A pinned
  test (``tests/par/test_engine.py``) proves ``jobs=4`` output is
  byte-identical to ``jobs=1``; :func:`run_grid` returns its results in
  spec order, the form every analysis runner consumes.

See DESIGN.md §3f for the determinism argument.
"""

from repro.par.cache import CellCache
from repro.par.cells import CellSpec, canonical_json, cell_key
from repro.par.engine import (
    CellOutcome,
    SweepRun,
    add_par_args,
    run_cells,
    run_grid,
)

__all__ = [
    "CellCache",
    "CellOutcome",
    "CellSpec",
    "SweepRun",
    "add_par_args",
    "canonical_json",
    "cell_key",
    "run_cells",
    "run_grid",
]
