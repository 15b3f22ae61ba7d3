"""Payload-plane study — bytes on wire and commit latency vs payload size.

The control/payload split (``repro.rpc.payload``, DESIGN §3i) moves only
an ``ObjectProxy`` descriptor on the control plane and resolves bulk
bytes lazily, at first actual read, through ``PAYLOAD_FETCH``.  This
harness sweeps the declared payload size across the 1 KB - 100 MB axis
in both modes and verifies the headline claims:

* **eager** mode bills the full payload on every value-carrying grant
  and hand-off, so grant bytes on the wire grow linearly with size;
* **proxy** mode ships a constant descriptor with every grant, so grant
  bytes stay flat across the whole axis — bulk bytes move only when a
  destination actually reads, and repeat reads at an unchanged version
  fence hit the per-node resolve cache (nonzero hit rate on the
  read-mostly cell);
* eager commit latency inflates with size (payload transfer sits on the
  commit path); proxy commit latency stays payload-independent.

Usage::

    pytest benchmarks/bench_payload.py               # shape assertions
    python benchmarks/bench_payload.py               # full sweep,
                                                     #   writes BENCH_PAYLOAD.json
    python benchmarks/bench_payload.py --smoke --jobs 2      # CI grid
    python benchmarks/bench_payload.py --payload-size 1048576 --proxy
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
from benchmarks.conftest import BENCH_SEED, cell_spec, run_cell
from repro.par import add_par_args, run_cells

#: the read-mostly cell: repeat reads at an unchanged version fence are
#: exactly what the proxy resolve cache exists for
PAYLOAD_WORKLOAD = "bank"
PAYLOAD_READ_FRACTION = 0.9
PAYLOAD_NODES = 8
PAYLOAD_HORIZON = 4.0

#: declared-payload-size axis (bytes): 1 KB .. 100 MB
SIZE_AXIS = (1_024, 1_048_576, 10_485_760, 104_857_600)
SMOKE_SIZES = (1_024, 1_048_576)
MODES = ("eager", "proxy")

#: flatness bound for proxy-mode grant bytes across the size axis
FLAT_RATIO = 1.5
#: minimum growth of eager grant bytes across the axis, as a fraction of
#: the size ratio (message counts shift slightly as transfer delay grows)
LINEAR_FLOOR = 0.1


def _payload(mode, size):
    return dict(enabled=True, proxy=(mode == "proxy"), size=int(size))


def payload_spec(mode, size, nodes=PAYLOAD_NODES, seed=BENCH_SEED,
                 horizon=PAYLOAD_HORIZON, read_fraction=PAYLOAD_READ_FRACTION):
    """One payload cell (a repro.par unit)."""
    return cell_spec(
        PAYLOAD_WORKLOAD, "rts", read_fraction,
        nodes=nodes, horizon=horizon, seed=seed,
        payload=_payload(mode, size),
    )


def payload_cell(mode, size, **kwargs):
    """One payload cell, served from the cell cache."""
    return run_cell(
        PAYLOAD_WORKLOAD, "rts",
        kwargs.pop("read_fraction", PAYLOAD_READ_FRACTION),
        nodes=kwargs.pop("nodes", PAYLOAD_NODES),
        horizon=kwargs.pop("horizon", PAYLOAD_HORIZON),
        seed=kwargs.pop("seed", BENCH_SEED),
        payload=_payload(mode, size),
        **kwargs,
    )


def _row(mode, size, result):
    x = result.extra
    commits = result.commits or 1
    return {
        "mode": mode,
        "size": int(size),
        "commits": result.commits,
        "grant_bytes": x["grant_bytes_on_wire"],
        # the flat-vs-linear axis, decoupled from how many transactions
        # the horizon fits as transfer delay grows
        "grant_bytes_per_commit": round(x["grant_bytes_on_wire"] / commits, 2),
        "fetch_bytes": x["payload_fetch_bytes"],
        "payload_bytes": x["payload_bytes_on_wire"],
        "control_bytes": x["control_bytes_on_wire"],
        "hit_rate": x["payload_cache_hit_rate"],
        "mean_commit_latency": round(result.mean_commit_latency, 6),
    }


def _metrics(rows):
    """The trajectory metrics: grant bytes per commit per (mode, size),
    and the proxy resolve-cache hit rate per size."""
    metrics = {}
    for r in rows:
        metrics[f"grant_bpc_{r['mode']}_{r['size']}"] = r["grant_bytes_per_commit"]
        if r["mode"] == "proxy":
            metrics[f"hit_rate_proxy_{r['size']}"] = r["hit_rate"]
    return metrics


def _verdict(rows):
    """The acceptance checks over a sweep's rows; returns failures."""
    failures = []
    by_mode = {m: sorted((r for r in rows if r["mode"] == m),
                         key=lambda r: r["size"]) for m in MODES}
    proxy, eager = by_mode["proxy"], by_mode["eager"]
    if proxy:
        grants = [r["grant_bytes_per_commit"] for r in proxy]
        if min(grants) <= 0:
            failures.append("proxy grant bytes are zero (plane not billing)")
        elif max(grants) / min(grants) >= FLAT_RATIO:
            failures.append(
                f"proxy grant bytes/commit not flat: "
                f"{min(grants)}..{max(grants)}"
            )
        if all(r["hit_rate"] == 0.0 for r in proxy):
            failures.append("proxy resolve cache never hit on read-mostly cell")
    if len(eager) >= 2:
        lo, hi = eager[0], eager[-1]
        size_ratio = hi["size"] / lo["size"]
        byte_ratio = (hi["grant_bytes_per_commit"] / lo["grant_bytes_per_commit"]
                      if lo["grant_bytes_per_commit"] else 0.0)
        if byte_ratio < size_ratio * LINEAR_FLOOR:
            failures.append(
                f"eager grant bytes/commit not ~linear in size: "
                f"bytes x{byte_ratio:.1f} for size x{size_ratio:.0f}"
            )
    if proxy and eager:
        # At the top of the axis the proxy grant plane must be far
        # cheaper than eager's inline payloads.
        p_top, e_top = proxy[-1], eager[-1]
        if p_top["grant_bytes_per_commit"] * 10 > e_top["grant_bytes_per_commit"]:
            failures.append(
                "proxy grants not cheaper than eager at max size: "
                f"{p_top['grant_bytes_per_commit']} vs "
                f"{e_top['grant_bytes_per_commit']} bytes/commit"
            )
    return failures


# ---------------------------------------------------------------------------
# shape assertions (pytest benchmarks/bench_payload.py)
# ---------------------------------------------------------------------------

_SMALL = dict(nodes=4, horizon=2.0)


def test_default_off_has_no_payload_extras():
    """With the plane off (default) no payload keys appear in extras."""
    r = run_cell(PAYLOAD_WORKLOAD, "rts", PAYLOAD_READ_FRACTION, **_SMALL)
    assert "payload_mode" not in r.extra
    assert "payload_bytes_on_wire" not in r.extra


def test_eager_grant_bytes_grow_with_size():
    small = payload_cell("eager", 1_024, **_SMALL)
    large = payload_cell("eager", 1_048_576, **_SMALL)
    assert small.extra["payload_mode"] == "eager"
    assert small.extra["grant_bytes_on_wire"] > 0
    assert large.extra["grant_bytes_on_wire"] > \
        small.extra["grant_bytes_on_wire"] * 10


def test_proxy_grant_bytes_flat_across_sizes():
    small = payload_cell("proxy", 1_024, **_SMALL)
    large = payload_cell("proxy", 1_048_576, **_SMALL)
    assert small.extra["payload_mode"] == "proxy"
    g_small = small.extra["grant_bytes_on_wire"] / small.commits
    g_large = large.extra["grant_bytes_on_wire"] / large.commits
    assert g_small > 0
    assert max(g_small, g_large) / min(g_small, g_large) < FLAT_RATIO


def test_proxy_cache_hits_on_read_mostly_cell():
    r = payload_cell("proxy", 1_048_576, **_SMALL)
    assert r.extra["payload_fetches"] > 0
    assert r.extra["payload_cache_hit_rate"] > 0.0


def test_benchmark_payload_cell(benchmark):
    """pytest-benchmark: wall-clock cost of one proxy payload cell."""
    result = benchmark.pedantic(
        lambda: payload_cell("proxy", 1_048_576, **_SMALL),
        rounds=1, iterations=1,
    )
    assert result.commits > 0


# ---------------------------------------------------------------------------
# CLI: size sweep, eager vs proxy
# ---------------------------------------------------------------------------


def _print_table(rows):
    header = (f"{'mode':>5} | {'size':>11} | {'grant B/commit':>14} | "
              f"{'fetch bytes':>13} | {'control':>9} | {'hit%':>5} | "
              f"{'commit ms':>9} | commits")
    print(header)
    print("-" * len(header))
    for r in rows:
        print(f"{r['mode']:>5} | {r['size']:>11,} | "
              f"{r['grant_bytes_per_commit']:>14,.0f} | "
              f"{r['fetch_bytes']:>13,} | {r['control_bytes']:>9,} | "
              f"{r['hit_rate'] * 100:>5.1f} | "
              f"{r['mean_commit_latency'] * 1e3:>9.2f} | {r['commits']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size grid at a short horizon (CI)")
    parser.add_argument("--sizes", default=None,
                        help="comma list of payload sizes (bytes)")
    parser.add_argument("--payload-size", type=int, default=None,
                        help="shorthand: sweep this single size")
    mode_group = parser.add_mutually_exclusive_group()
    mode_group.add_argument("--proxy", action="store_true",
                            help="proxy mode only (descriptor grants + "
                                 "lazy PAYLOAD_FETCH)")
    mode_group.add_argument("--eager", action="store_true",
                            help="eager mode only (inline payload grants)")
    parser.add_argument("--nodes", type=int, default=PAYLOAD_NODES)
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--horizon", type=float, default=PAYLOAD_HORIZON)
    parser.add_argument("--read-fraction", type=float,
                        default=PAYLOAD_READ_FRACTION)
    parser.add_argument("--out", default="BENCH_PAYLOAD.json",
                        help="result JSON path ('' = do not write)")
    add_par_args(parser)
    args = parser.parse_args(argv)

    if args.payload_size is not None and args.sizes is not None:
        parser.error("--payload-size and --sizes are mutually exclusive")
    if args.payload_size is not None:
        sizes = (int(args.payload_size),)
    elif args.sizes is not None:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    elif args.smoke:
        sizes = SMOKE_SIZES
    else:
        sizes = SIZE_AXIS
    horizon = min(args.horizon, 2.0) if args.smoke else args.horizon
    modes = MODES
    if args.proxy:
        modes = ("proxy",)
    elif args.eager:
        modes = ("eager",)

    grid = [(mode, size) for mode in modes for size in sizes]
    specs = [
        payload_spec(mode, size, nodes=args.nodes, seed=args.seed,
                     horizon=horizon, read_fraction=args.read_fraction)
        for mode, size in grid
    ]
    sweep = run_cells(specs, jobs=args.jobs, cache_dir=args.cache_dir)
    rows = [
        _row(mode, size, outcome.result)
        for (mode, size), outcome in zip(grid, sweep.in_spec_order())
    ]

    print(f"payload plane: {PAYLOAD_WORKLOAD} "
          f"read={args.read_fraction:.0%} nodes={args.nodes} "
          f"horizon={horizon}s seed={args.seed} jobs={args.jobs}")
    _print_table(rows)

    failures = _verdict(rows) if len(sizes) >= 2 and len(modes) == 2 else []
    for failure in failures:
        print(f"FAIL: {failure}")

    payload = {
        # a trajectory row for ``python -m repro.prof.trend append``
        "bench": "bench_payload",
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "metrics": _metrics(rows),
        "workload": PAYLOAD_WORKLOAD,
        "read_fraction": args.read_fraction,
        "nodes": args.nodes,
        "horizon": horizon,
        "seed": args.seed,
        "sizes": list(sizes),
        "table": rows,
        "verdict": "fail" if failures else "pass",
        "failures": failures,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nresults written to {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
