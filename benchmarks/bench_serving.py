"""Serving-mode saturation study — open-loop offered load vs goodput.

The closed-loop benchmarks (Figures 4-6) measure throughput with demand
that adapts to service rate; this harness measures the *serving* regime
instead: a Poisson arrival plane offers transactions at a fixed rate
whether or not the cluster keeps up (``repro.traffic``).  For each
scheduler the sweep reports offered rate vs goodput vs p99 sojourn
latency plus the stability verdict, and a bisection driver locates the
maximum sustainable rate — the serving-capacity headline under which RTS
scheduling beats the TFA baseline on the contended cell.

Usage::

    pytest benchmarks/bench_serving.py              # shape assertions
    python benchmarks/bench_serving.py              # table + bisection,
                                                    #   writes BENCH_SERVING.json
    python benchmarks/bench_serving.py --smoke --jobs 2   # CI grid, writes
                                                    #   nothing without --out
"""

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # executed as a script: self-locate
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(_root, "src"))
    sys.path.insert(0, _root)

from benchmarks.bench_kernel import git_sha, host_fingerprint
from benchmarks.conftest import BENCH_SEED, BENCH_WORKERS, cell_spec, run_cell
from repro.par import add_par_args, run_cells
from repro.traffic.stability import max_sustainable_rate

#: the contended serving cell: write-heavy bank transfers over a
#: Zipf-skewed account population — the regime where scheduling matters
SERVING_WORKLOAD = "bank"
SERVING_READ_FRACTION = 0.2
SERVING_ZIPF = 1.2
SERVING_NODES = 8
SERVING_HORIZON = 8.0

#: offered-rate axis (cluster-wide tx/s) for the saturation table
RATE_AXIS = (3.0, 5.0, 8.0, 12.0)
SCHEDULERS = ("rts", "tfa")

#: bisection bracket for the max-sustainable-rate search
BISECT_LO, BISECT_HI = 2.0, 12.0


def _arrival(rate, **overrides):
    arrival = dict(enabled=True, process="poisson", rate=float(rate),
                   zipf_s=SERVING_ZIPF)
    arrival.update(overrides)
    return arrival


def serving_spec(scheduler, rate, nodes=SERVING_NODES, seed=BENCH_SEED,
                 horizon=SERVING_HORIZON, **arrival_overrides):
    """One open-loop saturation cell (a repro.par unit)."""
    return cell_spec(
        SERVING_WORKLOAD, scheduler, SERVING_READ_FRACTION,
        nodes=nodes, horizon=horizon, seed=seed,
        arrival=_arrival(rate, **arrival_overrides),
    )


def serving_cell(scheduler, rate, **kwargs):
    """One saturation cell, served from the cell cache."""
    return run_cell(
        SERVING_WORKLOAD, scheduler, SERVING_READ_FRACTION,
        nodes=kwargs.pop("nodes", SERVING_NODES),
        horizon=kwargs.pop("horizon", SERVING_HORIZON),
        seed=kwargs.pop("seed", BENCH_SEED),
        arrival=_arrival(rate, **kwargs),
    )


def _row(scheduler, result):
    x = result.extra
    return {
        "scheduler": scheduler,
        "nodes": result.num_nodes,
        "offered": x["offered"],
        "offered_rate": round(x["offered_rate"], 4),
        "goodput": round(result.throughput, 4),
        "p99_latency": round(x.get("latency_p99", 0.0), 4),
        "shed_rate": round(x["shed_rate"], 4),
        "stable": x["stable"],
        "verdict": x["stability"]["reason"],
    }


# ---------------------------------------------------------------------------
# shape assertions (pytest benchmarks/bench_serving.py)
# ---------------------------------------------------------------------------


def test_low_rate_is_stable():
    """Well under capacity, the verdict is stable and nothing is shed."""
    r = serving_cell("rts", 3.0)
    assert r.extra["stable"] is True
    assert r.extra["shed"] == 0
    assert r.extra["offered"] > 0


def test_overload_is_flagged():
    """Far past capacity, the detector must flag the run."""
    r = serving_cell("rts", 30.0)
    assert r.extra["stable"] is False
    # Goodput saturates well below the offered rate.
    assert r.throughput < r.extra["offered_rate"] * 0.5


def test_rts_sustains_rate_tfa_cannot():
    """The acceptance cell: RTS stays stable at an offered rate where the
    TFA baseline diverges (scheduling buys real serving capacity)."""
    rts = serving_cell("rts", 6.0)
    tfa = serving_cell("tfa", 6.0)
    assert rts.extra["stable"] is True
    assert tfa.extra["stable"] is False


def test_benchmark_serving_cell(benchmark):
    """pytest-benchmark: wall-clock cost of one saturation cell."""
    result = benchmark.pedantic(
        lambda: serving_cell("rts", 5.0), rounds=1, iterations=1,
    )
    assert result.commits > 0


# ---------------------------------------------------------------------------
# CLI: saturation table + max-sustainable-rate bisection
# ---------------------------------------------------------------------------


def _print_table(rows):
    header = (f"{'sched':>5} | {'nodes':>5} | {'offered tx/s':>12} | "
              f"{'goodput':>8} | {'p99 (s)':>8} | {'shed%':>6} | verdict")
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['scheduler']:>5} | {r['nodes']:>5} | "
              f"{r['offered_rate']:>12.1f} | {r['goodput']:>8.1f} | "
              f"{r['p99_latency']:>8.3f} | {r['shed_rate'] * 100:>6.1f} | "
              f"{'stable' if r['stable'] else 'UNSTABLE'} ({r['verdict']})")


def _profile_saturation(stable_rates, nodes, seed, horizon):
    """Attribute the p99 sojourn at the highest stable rate per scheduler.

    Reruns one cell per scheduler with observability on (spans to a
    temporary JSONL) and prints the latency-anatomy decomposition of the
    slowest 1% of committed chains — where tail time actually goes as
    the cluster approaches saturation.
    """
    import tempfile

    from repro.core.config import ClusterConfig, SchedulerKind
    from repro.core.experiment import run_experiment
    from repro.obs.report import load_events, summarize
    from repro.prof import SEGMENTS

    print("\np99 sojourn anatomy (highest stable offered rate per scheduler):")
    for sched in SCHEDULERS:
        rate = stable_rates.get(sched)
        if rate is None:
            print(f"  {sched:>5}: no stable cell on the rate axis")
            continue
        with tempfile.TemporaryDirectory() as td:
            jsonl = os.path.join(td, f"{sched}.jsonl")
            cfg = ClusterConfig(
                num_nodes=nodes, seed=seed, scheduler=SchedulerKind(sched),
                cl_threshold=4, arrival=_arrival(rate),
                obs=dict(enabled=True, jsonl_path=jsonl),
            )
            run_experiment(
                SERVING_WORKLOAD, cfg, read_fraction=SERVING_READ_FRACTION,
                workers_per_node=BENCH_WORKERS, horizon=horizon,
            )
            summary = summarize(load_events(jsonl))
        anatomy = summary.get("anatomy") or {}
        if not anatomy.get("roots"):
            print(f"  {sched:>5} @ {rate:.1f} tx/s: no committed chains")
            continue
        p99 = anatomy["p99_segments"]
        shares = "  ".join(
            f"{name} {p99[name] * 100:.0f}%"
            for name in SEGMENTS if p99[name] >= 0.005
        )
        print(f"  {sched:>5} @ {rate:.1f} tx/s: "
              f"p99 sojourn {anatomy['p99_sojourn'] * 1e3:.1f}ms "
              f"({anatomy['p99_chains']} tail chains): {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rate x nodes grid, no bisection (CI)")
    parser.add_argument("--profile", action="store_true",
                        help="rerun the highest stable cell per scheduler "
                             "with observability on and print the p99 "
                             "latency anatomy")
    parser.add_argument("--rates", default=None,
                        help="comma list of offered rates (tx/s)")
    parser.add_argument("--nodes", type=int, default=SERVING_NODES)
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--horizon", type=float, default=SERVING_HORIZON)
    parser.add_argument("--out", default=None,
                        help="result JSON path ('' = do not write; default "
                             "BENCH_SERVING.json, and nothing under --smoke)")
    add_par_args(parser)
    args = parser.parse_args(argv)

    if args.smoke:
        rates = (3.0, 10.0)
        node_axis = (4, args.nodes)
        horizon = min(args.horizon, 5.0)
    else:
        rates = (tuple(float(r) for r in args.rates.split(","))
                 if args.rates else RATE_AXIS)
        node_axis = (args.nodes,)
        horizon = args.horizon

    grid = [
        (sched, rate, nodes)
        for sched in SCHEDULERS for rate in rates for nodes in node_axis
    ]
    specs = [
        serving_spec(sched, rate, nodes=nodes, seed=args.seed, horizon=horizon)
        for sched, rate, nodes in grid
    ]
    sweep = run_cells(specs, jobs=args.jobs, cache_dir=args.cache_dir)
    rows = [
        _row(sched, outcome.result)
        for (sched, rate, nodes), outcome in zip(grid, sweep.in_spec_order())
    ]

    print(f"serving saturation: {SERVING_WORKLOAD} "
          f"read={SERVING_READ_FRACTION:.0%} zipf={SERVING_ZIPF} "
          f"horizon={horizon}s seed={args.seed} jobs={args.jobs}")
    _print_table(rows)

    missing = [r for r in rows if "verdict" not in r or r["verdict"] is None]
    if missing:
        print(f"FAIL: {len(missing)} cells without a stability verdict")
        return 1

    if args.profile:
        stable_rates = {}
        for (sched, rate, nodes), row in zip(grid, rows):
            if row["stable"] and (nodes == args.nodes):
                if rate > stable_rates.get(sched, float("-inf")):
                    stable_rates[sched] = rate
        _profile_saturation(stable_rates, args.nodes, args.seed, horizon)

    payload = {
        # a trajectory row for ``python -m repro.prof.trend append``
        "bench": "bench_serving",
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "workload": SERVING_WORKLOAD,
        "read_fraction": SERVING_READ_FRACTION,
        "zipf_s": SERVING_ZIPF,
        "horizon": horizon,
        "seed": args.seed,
        "table": rows,
    }

    if not args.smoke:
        print(f"\nmax sustainable rate (bisection over "
              f"[{BISECT_LO}, {BISECT_HI}] tx/s):")
        payload["bisection"] = {}
        payload["metrics"] = {}
        best = {}
        for sched in SCHEDULERS:
            def probe(rate, _sched=sched):
                r = serving_cell(_sched, rate, nodes=args.nodes,
                                 seed=args.seed, horizon=horizon)
                return r.extra["stable"]

            rate, probes = max_sustainable_rate(probe, BISECT_LO, BISECT_HI)
            best[sched] = rate
            payload["bisection"][sched] = {
                "max_rate": round(rate, 4),
                "probes": [[round(r, 4), ok] for r, ok in probes],
            }
            payload["metrics"][f"max_rate_{sched}"] = round(rate, 4)
            print(f"  {sched:>5}: {rate:6.2f} tx/s "
                  f"({len(probes)} probes)")
        if best["rts"] > best["tfa"]:
            print(f"  RTS sustains {best['rts'] - best['tfa']:.2f} tx/s more "
                  f"offered load than TFA on the contended cell")
        else:
            print("FAIL: RTS does not out-sustain TFA on the contended cell")
            return 1

    # a smoke table must never replace the checked-in full sweep
    out = args.out if args.out is not None else (
        "" if args.smoke else "BENCH_SERVING.json"
    )
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nresults written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
