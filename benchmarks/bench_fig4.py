"""Figure 4 — throughput at low contention (90% reads), per benchmark.

Bench-scale series over a reduced node axis; asserts the figure's shape
properties (throughput grows with node count; RTS is competitive with
the baselines).  Full series: ``python -m repro.analysis.reproduce fig4``.

Usage::

    pytest benchmarks/bench_fig4.py                          # shape assertions
    python benchmarks/bench_fig4.py --trace-out run.jsonl    # traced cell
    python benchmarks/bench_fig4.py --nodes 10,20,40,80      # scale sweep
    python benchmarks/bench_fig4.py --nodes 80 --batch-window 0.002 --cache
"""

import argparse
import os
import sys

if __package__ in (None, ""):  # executed as a script: self-locate
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(_root, "src"))
    sys.path.insert(0, _root)

import pytest

from benchmarks.conftest import add_traffic_args, arrival_from_args, cell_spec, run_cell
from repro.analysis.scales import BENCHMARKS, parse_nodes
from repro.par import add_par_args, run_cells

NODE_AXIS = (6, 12, 18)


def _series(workload, scheduler, bench_cache):
    return [
        bench_cache(
            ("fig4", workload, scheduler, nodes),
            lambda n=nodes: run_cell(workload, scheduler, 0.9, nodes=n),
        )
        for nodes in NODE_AXIS
    ]


@pytest.mark.parametrize("workload", BENCHMARKS)
def test_throughput_scales_with_nodes(workload, bench_cache):
    """Figure 4's dominant visual: more nodes, more committed tx/s."""
    series = _series(workload, "rts", bench_cache)
    thr = [r.throughput for r in series]
    assert thr[-1] > thr[0] * 1.3, f"{workload}: no scaling {thr}"


@pytest.mark.parametrize("workload", ["bank", "dht"])
def test_rts_competitive_at_low_contention(workload, bench_cache):
    """RTS tracks (or beats) TFA at low contention, as in the paper."""
    rts = _series(workload, "rts", bench_cache)
    tfa = _series(workload, "tfa", bench_cache)
    rts_total = sum(r.throughput for r in rts)
    tfa_total = sum(r.throughput for r in tfa)
    assert rts_total >= tfa_total * 0.9


def test_benchmark_fig4_cell(benchmark):
    """pytest-benchmark: wall-clock cost of one Figure 4 cell."""
    result = benchmark.pedantic(
        lambda: run_cell("ll", "rts", 0.9, nodes=12), rounds=1, iterations=1,
    )
    assert result.commits > 0


# ---------------------------------------------------------------------------
# CLI: one traced Figure-4 cell (the README observability quickstart)
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="bank", choices=sorted(BENCHMARKS))
    parser.add_argument("--scheduler", default="rts")
    parser.add_argument("--nodes", default="12",
                        help="node count, comma list (10,20,40,80), or a "
                             "scale preset name; multi-count runs a sweep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulated seconds per cell (bench default if unset)")
    parser.add_argument("--batch-window", type=float, default=0.0,
                        help="piggyback-batching coalescing window in "
                             "simulated seconds (0 = off)")
    parser.add_argument("--cache", action="store_true",
                        help="enable the version-fenced directory lookup cache")
    parser.add_argument("--trace-out", metavar="RUN.JSONL", default=None,
                        help="export an obs event log (largest cell); inspect "
                             "with `python -m repro.obs.report RUN.JSONL` (a "
                             "Chrome trace: add `--chrome OUT.json`)")
    parser.add_argument("--profile", action="store_true",
                        help="kernel-profile the largest cell (counters "
                             "mode; timeline unchanged) and print top sites")
    parser.add_argument("--profile-folded", metavar="OUT.FOLDED", default=None,
                        help="with --profile: write folded flamegraph stacks")
    add_traffic_args(parser)
    add_par_args(parser)
    args = parser.parse_args(argv)
    arrival = arrival_from_args(args, parser)

    node_axis = parse_nodes(args.nodes)
    traced = max(node_axis)
    specs = []
    for nodes in node_axis:
        kwargs = {"rpc": dict(batch_window=args.batch_window, cache=args.cache)}
        if arrival is not None:
            kwargs["arrival"] = arrival
        if args.horizon is not None:
            kwargs["horizon"] = args.horizon
        if nodes == traced and args.trace_out:
            kwargs["obs"] = dict(enabled=True, jsonl_path=args.trace_out)
        if nodes == traced and (args.profile or args.profile_folded):
            kwargs["prof"] = dict(enabled=True,
                                  folded_path=args.profile_folded)
        specs.append(cell_spec(args.workload, args.scheduler, 0.9,
                               nodes=nodes, seed=args.seed, **kwargs))
    sweep = run_cells(specs, jobs=args.jobs, cache_dir=args.cache_dir)

    header = (f"{'nodes':>5} | {'commits':>7} | {'tx/s':>8} | {'abort%':>6} | "
              f"{'msgs':>8} | {'cache%':>6} | {'batch':>6}")
    print(f"{args.workload}/{args.scheduler} scale sweep "
          f"(batch_window={args.batch_window}, cache={args.cache}, "
          f"jobs={args.jobs})")
    print(header)
    print("-" * len(header))
    for outcome in sweep.in_spec_order():
        r = outcome.result
        nodes = r.num_nodes
        x = r.extra
        cache_pct = (f"{x['rpc_cache_hit_rate'] * 100:.1f}"
                     if "rpc_cache_hit_rate" in x else "-")
        mean_batch = (f"{x['rpc_mean_batch']:.2f}"
                      if "rpc_mean_batch" in x else "-")
        open_loop = ""
        if "stable" in x:
            open_loop = (f" | offered {x['offered_rate']:>6.1f} tx/s, "
                         f"shed {x['shed_rate'] * 100:.1f}%, "
                         f"{'stable' if x['stable'] else 'UNSTABLE'}")
        print(f"{nodes:>5} | {r.commits:>7} | {r.throughput:>8.1f} | "
              f"{r.abort_ratio * 100:>6.1f} | {r.messages_sent:>8} | "
              f"{cache_pct:>6} | {mean_batch:>6}{open_loop}")
        if r.commits <= 0:
            print(f"FAIL: no commits at {nodes} nodes")
            return 1
    if args.cache_dir:
        s = sweep.cache_stats
        print(f"cell cache: {sweep.from_cache}/{len(specs)} served "
              f"(hits={s['hits']} misses={s['misses']} writes={s['writes']})")
    if args.trace_out:
        print(f"obs event log: {args.trace_out} "
              f"(python -m repro.obs.report {args.trace_out})")
    if args.profile or args.profile_folded:
        for outcome in sweep.in_spec_order():
            snap = outcome.result.extra.get("prof")
            if not snap:
                continue
            print(f"\nkernel profile ({snap['events']} events, "
                  f"{snap['mode']}, {snap['sites']} sites):")
            for row in snap["top"]:
                print(f"  {row['event']:<10} {row['site']:<28} "
                      f"{row['count']:>10,}")
        if args.profile_folded:
            print(f"folded stacks: {args.profile_folded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
