"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one artefact of the paper's
evaluation (a table or a figure) at a scaled-down default.  Two usage
modes:

* ``pytest benchmarks/ --benchmark-only`` — every benchmark function runs
  one representative cell through pytest-benchmark (wall-clock cost of
  the simulation itself) and asserts the reproduction's shape properties
  on the simulated metrics;
* ``python -m repro.analysis.reproduce <artefact> [--scale full]`` —
  regenerates the complete table/figure series (see EXPERIMENTS.md).

Cells run through ``repro.par``: results are served from an on-disk
content-addressed cache (default ``benchmarks/.cell_cache``; override
with ``REPRO_CELL_CACHE=<dir>``, disable with ``REPRO_CELL_CACHE=``),
so benchmark pytest reruns skip already-computed cells.  CLI sweeps
accept ``--jobs``/``--cache-dir`` to fan cells across processes.
"""

import os
from pathlib import Path

import pytest

from repro.core.config import ClusterConfig, SchedulerKind
from repro.core.experiment import ExperimentResult
from repro.par import CellSpec, run_cells

#: scaled-down defaults shared by all bench files
BENCH_NODES = 12
BENCH_HORIZON = 8.0
BENCH_WORKERS = 2
BENCH_SEED = 1

#: default on-disk cell cache for pytest runs (rerunning the benchmark
#: suite recomputes nothing); deterministic results make serving from
#: cache observably identical to recomputing
_DEFAULT_CACHE = str(Path(__file__).resolve().parent / ".cell_cache")

#: sentinel: "caller did not choose" — use the suite's default cache
SESSION_CACHE = "<session>"


def cache_dir_or_default(cache_dir):
    """Resolve a --cache-dir style value to a directory or None."""
    if cache_dir == SESSION_CACHE:
        return os.environ.get("REPRO_CELL_CACHE", _DEFAULT_CACHE) or None
    return cache_dir


def cell_spec(
    workload: str,
    scheduler: SchedulerKind | str,
    read_fraction: float,
    nodes: int = BENCH_NODES,
    horizon: float = BENCH_HORIZON,
    seed: int = BENCH_SEED,
    **config_kwargs,
) -> CellSpec:
    """One experiment cell at bench scale (the repro.par unit)."""
    cfg = ClusterConfig(
        num_nodes=nodes, seed=seed, scheduler=SchedulerKind(scheduler),
        cl_threshold=config_kwargs.pop("cl_threshold", 4), **config_kwargs,
    )
    return CellSpec(
        workload, cfg, read_fraction=read_fraction,
        workers_per_node=BENCH_WORKERS, horizon=horizon,
    )


def run_cell(
    workload: str,
    scheduler: SchedulerKind | str,
    read_fraction: float,
    nodes: int = BENCH_NODES,
    horizon: float = BENCH_HORIZON,
    seed: int = BENCH_SEED,
    cache_dir: str | None = SESSION_CACHE,
    **config_kwargs,
) -> ExperimentResult:
    """One experiment cell at bench scale, served from the cell cache."""
    spec = cell_spec(workload, scheduler, read_fraction,
                     nodes=nodes, horizon=horizon, seed=seed, **config_kwargs)
    run = run_cells([spec], jobs=1, cache_dir=cache_dir_or_default(cache_dir))
    return run.outcomes[0].result


def add_traffic_args(parser):
    """Attach the shared open-loop traffic flags to a bench CLI parser."""
    group = parser.add_argument_group("open-loop traffic (repro.traffic)")
    group.add_argument(
        "--arrival", default=None, metavar="poisson:RATE",
        help="run open-loop: poisson:<rate> (cluster-wide tx/s); unset "
             "keeps the closed worker loop",
    )
    group.add_argument(
        "--zipf", type=float, default=None, metavar="S",
        help="Zipf skew of object popularity (open-loop only)",
    )
    group.add_argument(
        "--queue-capacity", type=int, default=64,
        help="per-node admission queue bound; a full queue sheds the "
             "arrival (open-loop only)",
    )
    return group


def arrival_from_args(args, parser):
    """Build the ArrivalConfig selected by :func:`add_traffic_args` flags.

    Returns None when ``--arrival`` was not given (closed loop).  The
    config validates the flags: without ``--arrival`` it is disabled and
    refuses any open-loop modifier set away from its default.  Its
    ``ValueError`` is reported via ``parser.error``.
    """
    from repro.core.config import ArrivalConfig

    process = {}
    if args.arrival is not None:
        kind, _, rate = args.arrival.partition(":")
        if kind != "poisson" or not rate:
            parser.error(f"--arrival must be poisson:<rate>, got {args.arrival!r}")
        try:
            process = dict(enabled=True, rate=float(rate))
        except ValueError:
            parser.error(f"--arrival has a non-numeric rate: {args.arrival!r}")
    try:
        arrival = ArrivalConfig(
            **process,
            zipf_s=args.zipf if args.zipf is not None else 0.0,
            queue_capacity=args.queue_capacity,
        )
    except ValueError as exc:
        hint = "" if process else " (open-loop flags need --arrival)"
        parser.error(f"{exc}{hint}")
    return arrival if arrival.enabled else None


@pytest.fixture(scope="session")
def bench_cache():
    """Compatibility shim for cell memoisation across benchmark functions.

    Historically an in-memory session dict; the on-disk cell cache in
    :func:`run_cell` now provides the same skip-if-computed behaviour
    (and survives across sessions), so this just invokes the thunk.
    """

    def get(key, thunk):
        return thunk()

    return get
