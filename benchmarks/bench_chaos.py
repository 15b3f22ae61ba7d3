"""Chaos benchmark — throughput and safety under injected faults.

Not a paper artefact: the paper assumes a reliable network.  This bench
characterises the `repro.faults` subsystem instead: how much committed
throughput survives as the message drop rate grows, that the ledger
stays serializable throughout, and that the whole faulted timeline is
seed-deterministic.

It also owns the chaos *reproducer* (ROADMAP item 1): 12 nodes, bank at
50 % reads under RTS, every fault class on, 40 simulated seconds.
``tests/faults/test_chaos_reproducers.py`` pins seeds of it; ``--sweep``
runs it sanitized over a seed range and names every seed that trips the
sanitizer, loses money or fails the serializability oracle.

Usage::

    pytest benchmarks/bench_chaos.py                       # shape assertions
    python benchmarks/bench_chaos.py --smoke               # throughput-vs-drop table
    python benchmarks/bench_chaos.py --smoke --nodes 40    # at scale
    python benchmarks/bench_chaos.py --sweep 200-215 --crash-rate 1.0 --jobs 2
"""

import argparse
import multiprocessing
import os
import sys

if __package__ in (None, ""):  # executed as a script: self-locate
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(_root, "src"))
    sys.path.insert(0, _root)

import pytest

from benchmarks.conftest import cell_spec, run_cell
from repro.check import InvariantViolation
from repro.check.oracle import check_history
from repro.core.cluster import Cluster, reset_run_ids
from repro.core.config import ClusterConfig, FaultConfig
from repro.core.executor import WorkloadExecutor
from repro.par import add_par_args, run_cells
from repro.workloads.bank import INITIAL_BALANCE
from repro.workloads.registry import make_workload

DROP_AXIS = (0.0, 0.01, 0.05)
CHAOS_NODES = 6
CHAOS_HORIZON = 6.0
#: the reproducer's size, length and crash rate
REPRO_NODES = 12
REPRO_HORIZON = 40.0
REPRO_CRASH_RATE = 0.2


def chaos_faults(drop_rate: float, **overrides) -> FaultConfig:
    """The acceptance-criteria fault model at a given drop rate (the
    recovery timing is the protocol's constants, ``repro.faults.recovery``)."""
    kw = dict(
        enabled=True,
        drop_rate=drop_rate,
        duplicate_rate=0.02,
        extra_delay_rate=0.05,
        extra_delay_max=0.02,
    )
    kw.update(overrides)
    return FaultConfig(**kw)


def chaos_spec(scheduler, drop_rate, seed=1, read_fraction=0.5,
               obs=None, nodes=CHAOS_NODES, **fault_overrides):
    return cell_spec(
        "bank", scheduler, read_fraction,
        nodes=nodes, horizon=CHAOS_HORIZON, seed=seed,
        faults=chaos_faults(drop_rate, **fault_overrides),
        **({"obs": obs} if obs is not None else {}),
    )


def run_chaos_cell(scheduler, drop_rate, seed=1, read_fraction=0.5,
                   obs=None, nodes=CHAOS_NODES, **fault_overrides):
    return run_cell(
        "bank", scheduler, read_fraction,
        nodes=nodes, horizon=CHAOS_HORIZON, seed=seed,
        faults=chaos_faults(drop_rate, **fault_overrides),
        **({"obs": obs} if obs is not None else {}),
    )


def run_reproducer(seed, sanitize=False, horizon=REPRO_HORIZON,
                   crash_rate=REPRO_CRASH_RATE, **fault_overrides):
    """Run the chaos reproducer to ``horizon``; returns the cluster and
    the bank workload.  ``fault_overrides`` are further FaultConfig
    fields (``partition_duration=3.0``).  Ids restart first, so a seed's
    txids are the same whatever ran before it in the process (a sweep's
    pool worker runs many seeds)."""
    reset_run_ids()
    cluster = Cluster(ClusterConfig(
        num_nodes=REPRO_NODES, seed=seed, scheduler="rts", cl_threshold=4,
        check=dict(sanitize=sanitize),
        faults=chaos_faults(
            0.05, crash_rate=crash_rate, crash_duration=0.5,
            partition_rate=0.1, schedule_horizon=REPRO_HORIZON,
            **fault_overrides,
        ),
    ))
    workload = make_workload("bank", read_fraction=0.5)
    executor = WorkloadExecutor(cluster, workload, workers_per_node=2,
                                horizon=horizon, max_attempts_per_tx=256)
    executor.setup()
    executor.run()
    return cluster, workload


def reproducer_failure(seed, crash_rate=REPRO_CRASH_RATE):
    """What the sanitized reproducer breaks at ``seed``, or None: the
    rule the sanitizer raised, the money it lost, or the kinds of
    violation the serializability oracle finds in its history."""
    try:
        cluster, workload = run_reproducer(seed, sanitize=True, crash_rate=crash_rate)
    except InvariantViolation as exc:
        return exc.rule_id
    total = sum(cluster.authoritative_value(a) for a in workload.accounts)
    if total != workload.expected_total():
        return f"money {total} of {workload.expected_total()}"
    initial = {oid: INITIAL_BALANCE for oid in workload.accounts}
    kinds = {v.kind for v in check_history(cluster.sanitizer.history, initial=initial)}
    return ", ".join(sorted(kinds)) or None


def _sweep_one(job):
    seed, crash_rate = job
    return seed, reproducer_failure(seed, crash_rate)


def sweep_reproducer(first, last, crash_rate=REPRO_CRASH_RATE, jobs=1):
    """``[(seed, failure)]`` for every failing seed in ``first..last``."""
    todo = [(seed, crash_rate) for seed in range(first, last + 1)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            outcomes = pool.map(_sweep_one, todo, chunksize=1)
    else:
        outcomes = [_sweep_one(job) for job in todo]
    return [(seed, failure) for seed, failure in outcomes if failure]


# ---------------------------------------------------------------------------
# shape assertions (pytest)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["rts", "tfa"])
def test_progress_under_acceptance_drop_rate(scheduler, bench_cache):
    """At drop <= 0.05 the cluster keeps committing transactions."""
    r = bench_cache(
        ("chaos", scheduler, 0.05),
        lambda: run_chaos_cell(scheduler, 0.05),
    )
    assert r.extra["fault_drops"] > 0, "injection must be live"
    assert r.commits > 10, f"{scheduler}: no progress under drops"


def test_no_throughput_collapse_under_drops(bench_cache):
    """Recovery overhead stays bounded: the lossy run keeps a sizeable
    fraction of the clean run's commits.  (Faults are not strictly
    monotone — a dropped message can kill a doomed conflict early — so
    this is a collapse bound, not a dominance assertion.)"""
    clean = bench_cache(
        ("chaos", "rts", 0.0), lambda: run_chaos_cell("rts", 0.0)
    )
    lossy = bench_cache(
        ("chaos", "rts", 0.05), lambda: run_chaos_cell("rts", 0.05)
    )
    assert clean.commits > 10
    assert lossy.commits > clean.commits * 0.5


def test_same_seed_same_chaos(bench_cache):
    """The fault timeline is part of the deterministic run."""
    a = run_chaos_cell("rts", 0.05, seed=9)
    b = run_chaos_cell("rts", 0.05, seed=9)
    assert (a.commits, a.sim_events, a.extra) == (b.commits, b.sim_events, b.extra)


def test_benchmark_chaos_cell(benchmark):
    """pytest-benchmark: wall-clock cost of one chaos cell."""
    result = benchmark.pedantic(
        lambda: run_chaos_cell("rts", 0.05), rounds=1, iterations=1,
    )
    assert result.commits > 0


# ---------------------------------------------------------------------------
# CLI smoke table
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="print a throughput-vs-drop-rate table")
    parser.add_argument("--nodes", type=int, default=CHAOS_NODES,
                        help="cluster size for every cell (scale axis)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-out", metavar="RUN.JSONL", default=None,
                        help="export an obs event log (repro.obs) for the "
                             "highest-drop rts cell; inspect with "
                             "`python -m repro.obs.report RUN.JSONL` (a "
                             "Chrome trace: add `--chrome OUT.json`)")
    parser.add_argument("--sweep", metavar="A-B", default=None,
                        help="run the sanitized reproducer (12 nodes, 40 "
                             "sim-s) over seeds A..B and print the failing "
                             "seeds; exit 1 if there are any")
    parser.add_argument("--crash-rate", type=float, default=REPRO_CRASH_RATE,
                        help="the reproducer's crashes per sim-s (--sweep)")
    add_par_args(parser)
    args = parser.parse_args(argv)
    if args.sweep:
        first, last = (int(x) for x in args.sweep.split("-"))
        failures = sweep_reproducer(first, last, args.crash_rate, args.jobs)
        print(f"reproducer seeds {first}-{last} at crash_rate={args.crash_rate}: "
              f"{len(failures)} of {last - first + 1} fail")
        for seed, failure in failures:
            print(f"FAIL seed {seed}: {failure}")
        return 1 if failures else 0
    if not args.smoke:
        parser.print_help()
        return 0

    traced_cell = (DROP_AXIS[-1], "rts")
    grid = [(drop, sched) for drop in DROP_AXIS for sched in ("rts", "tfa")]
    specs = []
    for drop, sched in grid:
        obs = None
        if (drop, sched) == traced_cell and args.trace_out:
            obs = dict(enabled=True, jsonl_path=args.trace_out)
        specs.append(chaos_spec(sched, drop, seed=args.seed, obs=obs,
                                nodes=args.nodes))
    sweep = run_cells(specs, jobs=args.jobs, cache_dir=args.cache_dir)

    header = f"{'drop':>6} | {'sched':>5} | {'commits':>7} | {'tx/s':>8} | {'drops':>6} | {'retries':>7} | {'reclaims':>8}"
    print(f"chaos @ {args.nodes} nodes (jobs={args.jobs})")
    print(header)
    print("-" * len(header))
    for (drop, sched), outcome in zip(grid, sweep.in_spec_order()):
        r = outcome.result
        x = r.extra
        print(
            f"{drop:>6.2f} | {sched:>5} | {r.commits:>7} | "
            f"{r.throughput:>8.1f} | {x.get('fault_drops', 0):>6} | "
            f"{x.get('rpc_retries', 0):>7} | {x.get('lease_reclaims', 0):>8}"
        )
        if r.commits <= 10:
            print(f"FAIL: {sched} @ drop={drop}: only {r.commits} commits")
            return 1
    print("ok: progress under every drop rate")
    if args.trace_out:
        print(f"obs event log: {args.trace_out} "
              f"(python -m repro.obs.report {args.trace_out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
