"""bench_e2e: the end-to-end ledger (see README.md beside this file).

    python benchmarks/e2e/run.py                       # every workload, full ledger
    python benchmarks/e2e/run.py --workload W          # one workload, full ledger
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                       # driver protocol: the last stdout
                                                       # line is one JSON result object
    python benchmarks/e2e/run.py --repeat-check        # two sets; differences vs bounds
    python benchmarks/e2e/run.py --smoke               # horizons / 6, 2 reps

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` adds the tool-tax cells and one traced repetition and
reports the per-layer metrics; without ``--trace`` both are done.  Names,
units, directions and bounds live in ``BENCHMARK.json`` at the repo root.
Exit status: 0 = measured and every check passed; 3 = measured, a
correctness check failed (the report says which); anything else = the
run itself broke and there is no result.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench_e2e: {ROOT / 'src' / 'repro'} not found: run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402 - needs the paths above
import cells  # noqa: E402
import trace  # noqa: E402 - this directory's trace.py shadows the stdlib module

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: host seconds one timed repetition is sized for; ``--seconds`` buys
#: ``seconds // NOMINAL_REP_S`` repetitions (18 s -> the ledger's 7)
NOMINAL_REP_S = 2.5
MIN_REPS = 5
#: exit status of a run that measured but failed a correctness check
CHECK_FAILED = 3
#: fresh interpreters per ``setup_s`` (median reported)
SETUP_PROBES = 7
#: best-of-N for every tool-tax variant, interleaved off/obs/.../off/obs/...
TAX_REPS = 3
#: tool-tax cells run the workload's own cell at this share of its horizon
TAX_HORIZON_SHARE = 1 / 3
#: ``--smoke`` divides every horizon by this
SMOKE_DIVISOR = 6

#: knobs that would silently change what a cell does or what is timed
SCRUBBED_ENV = ("REPRO_SANITIZE", "REPRO_CELL_CACHE")

TAX_VARIANTS: Dict[str, Dict[str, Any]] = {
    "off": {},
    "obs": {"obs": {"enabled": True}},
    "sanitize": {"check": {"sanitize": True}},
    "prof_counters": {"prof": {"enabled": True}},
    "prof_wall": {"prof": {"enabled": True, "wall": True}},
}


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def run_workload(
    name: str, seed: int, reps: int, trace_mode: Optional[int], smoke: bool
) -> Dict[str, Any]:
    """Everything the ledger records for one workload.

    ``trace_mode`` 0 = end-to-end only, 1 = per-layer only, None = both.
    """
    cell = cells.CELLS[name]
    horizon = cell.horizon / SMOKE_DIVISOR if smoke else cell.horizon
    failures: List[str] = []
    first = cells.rep_seed(seed, 0)  # the cell every extra pass re-runs

    # One untimed warm-up cell: imports, bytecode specialisation and the
    # allocator's arenas are paid before the first timed repetition.
    cells.run_once(cell, first, horizon / 20)

    timed = []
    for rep in range(reps):
        result = cells.run_once(cell, cells.rep_seed(seed, rep), horizon)
        result.pop("cluster")
        failures += [f"rep {rep}: {f}" for f in result["failures"]]
        timed.append(result)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pooled = _pool(timed)

    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "reps": [
            {"seed": cells.rep_seed(seed, rep), "wall_s": r["wall_s"],
             "ref_s": r["ref_s"], "events": r["counts"]["events"],
             "commits": r["counts"]["commits"], "sim_digest": r["sim_digest"]}
            for rep, r in enumerate(timed)
        ],
        "sim_digest": hashlib.sha256(
            "".join(r["sim_digest"] for r in timed).encode()
        ).hexdigest(),
        "attempted": int(pooled["attempted"]),
        "failed": int(pooled["failed"]),
    }
    if trace_mode in (0, None):
        # The sanitizer is read-only: a sanitized repetition must raise no
        # InvariantViolation and land on the unsanitized digest.  It also
        # runs unsliced, so the same comparison shows that time_run's
        # slicing leaves the simulation alone.
        cluster, executor = cells.build(cell, first, horizon, check={"sanitize": True})
        executor.run()
        if cluster.sanitizer.checks == 0:
            failures.append("sanitized repetition checked nothing")
        _same_digest(failures, "sanitized", cells.inspect_run(cell, cluster, executor), timed[0])
        record["end_to_end"] = _units(E2E, {
            "host_us_per_commit": sum(r["ref_s"] for r in timed) / pooled["commits"] * 1e6,
            "setup_s": _setup_seconds(name, first, 2 if smoke else SETUP_PROBES),
            "peak_rss_mb": peak_rss_kb / 1024,
            "sim_commits_per_s": pooled["commits"] / pooled["horizon"],
            "sim_abort_ratio": pooled["root_aborts"] / (pooled["root_aborts"] + pooled["commits"]),
            "sim_commit_latency_mean_s": pooled["commit_latency_sum"] / pooled["commits"],
        })

    if trace_mode in (1, None):
        layer = _count_metrics(timed, pooled)
        layer.update(_tool_taxes(cell, first, horizon, 1 if smoke else TAX_REPS, failures))
        layer.update(_traced_rep(cell, first, horizon, timed[0], failures))
        record["per_layer"] = _units(PER_LAYER, layer)

    record["failures"] = failures
    record["correct"] = not failures
    return record


def _pool(timed: List[Dict[str, Any]]) -> Dict[str, float]:
    """Counters summed over the repetitions (each is its own seed, so the
    pooled ratios have a sqrt(reps) smaller seed-to-seed spread)."""
    pooled: Dict[str, float] = {}
    for result in timed:
        for key, value in result["counts"].items():
            pooled[key] = pooled.get(key, 0) + value
    return pooled


def _same_digest(failures: List[str], label: str, got: Dict[str, Any], want: Dict[str, Any]) -> None:
    failures += [f"{label}: {f}" for f in got["failures"]]
    if got["sim_digest"] != want["sim_digest"]:
        failures.append(
            f"{label} repetition changed the modelled system: "
            f"sim_digest {got['sim_digest'][:12]} != {want['sim_digest'][:12]}"
        )


def _units(spec: Dict[str, Dict[str, Any]], values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    if set(values) != set(spec):
        raise ValueError(
            f"metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(spec))}"
        )
    return {name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec}


def _setup_seconds(name: str, cluster_seed: int, probes: int) -> float:
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(cluster_seed)],
            check=True, capture_output=True, text=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_metrics(timed: List[Dict[str, Any]], p: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics that come exact from the untraced repetitions'
    public counters (plus the host diagnostics of those repetitions)."""
    commits = p["commits"]
    wall_s = sum(r["wall_s"] for r in timed)
    ref_s = sum(r["ref_s"] for r in timed)
    s_per_event = sorted(r["ref_s"] / r["counts"]["events"] for r in timed)
    probes = p["cache_hits"] + p["cache_misses"]
    payload_probes = p["payload_cache_hits"] + p["payload_cache_misses"]
    reps = len(timed)
    return {
        "sim.events_per_commit": p["events"] / commits,
        "sim.events_per_host_s": p["events"] / ref_s,
        "net.msgs_per_commit": p["messages"] / commits,
        "net.inbox_wait_sim_ms_mean": _ratio(p["inbox_wait_sum"], p["inbox_messages"]) * 1e3,
        "rpc.calls_per_commit": p["rpc_calls"] / commits,
        "rpc.cache_hit_rate": _ratio(p["cache_hits"], probes),
        "rpc.mean_batch": _ratio(p["batched_messages"], p["batches"]),
        "rpc.payload_fetches_per_commit": p["payload_fetches"] / commits,
        "rpc.payload_cache_hit_rate": _ratio(p["payload_cache_hits"], payload_probes),
        "rpc.grant_bytes_per_commit": p["grant_bytes"] / commits,
        "dstm.aborts_per_commit": p["root_aborts"] / commits,
        "dstm.useful_attempt_ratio": commits / (commits + p["root_aborts"]),
        "dstm.nested_abort_rate": _ratio(
            p["nested_aborts_parent"], p["nested_aborts_own"] + p["nested_aborts_parent"]
        ),
        "dstm.nested_aborts_per_commit": (p["nested_aborts_own"] + p["nested_aborts_parent"]) / commits,
        "scheduler.decisions_per_commit": p["sched_decisions"] / commits,
        "scheduler.enqueue_ratio": _ratio(p["sched_enqueued"], p["sched_decisions"]),
        "core.abandoned": p["abandoned"],
        "traffic.offered": p["offered"],
        "traffic.shed_share": _ratio(p["shed"], p["offered"]),
        "traffic.queue_depth_mean": p["queue_depth_mean"] / reps,
        "traffic.sojourn_p50_sim_s": statistics.median(r["counts"]["sojourn_p50"] for r in timed),
        "traffic.sojourn_p95_sim_s": statistics.median(r["counts"]["sojourn_p95"] for r in timed),
        "traffic.sojourn_p99_sim_s": statistics.median(r["counts"]["sojourn_p99"] for r in timed),
        "host.rep_spread": (statistics.median(s_per_event) - s_per_event[0]) / s_per_event[0],
        "host.cpu_wall_ratio": statistics.mean(r["cpu_wall"] for r in timed),
        "host.speed_index": wall_s / ref_s,
        "host.raw_us_per_commit": wall_s / commits * 1e6,
    }


def _tool_taxes(
    cell: cells.Cell, cluster_seed: int, horizon: float, reps: int, failures: List[str]
) -> Dict[str, float]:
    """What obs / the sanitizer / the kernel profiler cost: best-of-N
    host time (at reference speed) on ÷ off, on this workload's cell at a
    third of its horizon.  Also yields ``net.events_per_msg`` from the
    counters-mode profiler."""
    horizon *= TAX_HORIZON_SHARE
    best: Dict[str, float] = {}
    reference: Optional[Dict[str, Any]] = None
    net_events_per_msg = 0.0
    for _ in range(reps):
        for variant, overrides in TAX_VARIANTS.items():
            result = cells.run_once(cell, cluster_seed, horizon, **overrides)
            best[variant] = min(best.get(variant, float("inf")), result["ref_s"])
            if reference is None:
                reference = result
            _same_digest(failures, f"tax cell {variant}", result, reference)
            if variant == "prof_counters":
                sites = result["cluster"].profiler.counts
                net_events = sum(
                    n for (_kind, site), n in sites.items()
                    if site == "Network" or site.endswith(".inbox")
                )
                net_events_per_msg = net_events / result["counts"]["messages"]
    taxes = {f"tax.{v}_x": best[v] / best["off"] for v in TAX_VARIANTS if v != "off"}
    taxes["net.events_per_msg"] = net_events_per_msg
    return taxes


def _traced_rep(
    cell: cells.Cell, cluster_seed: int, horizon: float,
    untraced: Dict[str, Any], failures: List[str],
) -> Dict[str, float]:
    """One repetition under :mod:`trace`: per-layer self time.  Must be
    the last cell this process runs (the wrappers stay installed)."""
    tracer = trace.Tracer()
    trace.install(tracer)
    # the reference kernel runs inside executor.run()'s span: give it a
    # span of its own so its time is nobody's self time
    calib.sample = tracer.wrap(calib.sample, "bench", "calib.sample")
    cluster, executor = cells.build(cell, cluster_seed, horizon)
    tracer.agg.clear()  # set-up is not what a commit pays for
    timing = cells.time_run(cell, executor)
    layers = tracer.by_layer()  # before the inspection below adds spans
    layers.pop("bench")
    _same_digest(failures, "traced", cells.inspect_run(cell, cluster, executor), untraced)

    # Tracing inflates host time (tax.trace_x), so a layer's microseconds
    # are its share of the traced run applied to what the same cell costs
    # untraced, at reference speed: the layers add up to a commit.
    traced_ns = timing["wall_s"] * 1e9
    us_per_commit = untraced["ref_s"] / untraced["counts"]["commits"] * 1e6
    out = {
        f"{layer}.self_us_per_commit":
            layers.get(layer, {}).get("self_ns", 0) / traced_ns * us_per_commit
        for layer in trace.LAYERS
    }
    out["sim.self_share"] = layers["sim"]["self_ns"] / traced_ns
    out["host.ledger_closure"] = sum(row["self_ns"] for row in layers.values()) / traced_ns
    out["tax.trace_x"] = timing["ref_s"] / untraced["ref_s"]

    table = trace.layers_table(layers, traced_ns, us_per_commit)
    print(table)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace_{cell.name}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": cell.name, "cluster_seed": cluster_seed,
             # every *_ns below is raw host time of the traced repetition
             "traced_ns": int(traced_ns), "untraced_us_per_commit": us_per_commit,
             "layers": layers, "functions": tracer.functions(),
             "roots": tracer.roots, "layers_table": table},
            fh, indent=1,
        )
        fh.write("\n")
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def _print_record(record: Dict[str, Any]) -> None:
    print(f"# {record['workload']}  seed={record['seed']} reps={len(record['reps'])} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"sim_digest={record['sim_digest'][:16]}")
    for section, spec in (("end_to_end", E2E), ("per_layer", PER_LAYER)):
        for metric, entry in record.get(section, {}).items():
            bound = spec[metric].get("bound")
            gate = f"  ({spec[metric]['better']} is better" + (
                f", bound {bound:.0%})" if bound is not None else ")"
            )
            print(f"  {metric:<34} {entry['value']:>16.6g} {entry['unit']:<10}{gate}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")


def _result_line(record: Dict[str, Any], trace_mode: int) -> str:
    """The driver's result object (last line of stdout)."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer" if trace_mode else "end_to_end"],
    })


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None  # a checkout without git metadata
    return done.stdout.strip()


def _payload(records: List[Dict[str, Any]], args: argparse.Namespace) -> Dict[str, Any]:
    """The ``--json`` document (schema in README.md): row-shaped for
    ``python -m repro.prof.trend append``."""
    metrics = {
        f"{record['workload']}.{metric}": entry["value"]
        for record in records
        for section in ("end_to_end", "per_layer")
        for metric, entry in record.get(section, {}).items()
    }
    return {
        "schema": 1,
        "bench": "bench_e2e",
        "date": datetime.date.today().isoformat(),
        "git_sha": _git_sha(),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "seed": args.seed,
        "reps": args.reps,
        "smoke": args.smoke,
        "claim": None,
        "metrics": metrics,
        "workloads": records,
    }


# ----------------------------------------------------------------------
# all workloads: one child process each
# ----------------------------------------------------------------------


def _spawn(name: str, args: argparse.Namespace, trace_mode: Optional[int]) -> subprocess.Popen:
    """Start one workload in its own interpreter (it writes its record
    to ``out/ledger_<name>.json``; an older one is removed first, so a
    record that is there afterwards is this child's)."""
    OUT.mkdir(exist_ok=True)
    ledger = OUT / f"ledger_{name}.json"
    ledger.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--reps", str(args.reps),
        "--json", str(ledger),
    ]
    if trace_mode is not None:
        command += ["--trace", str(trace_mode)]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()  # keep this process's lines ahead of the child's
    # side-by-side children (smoke) must not interleave on one stdout
    return subprocess.Popen(
        command, stdout=subprocess.PIPE if args.smoke else None, text=True
    )


def _children(
    names: List[str], args: argparse.Namespace, trace_mode: Optional[int]
) -> List[Dict[str, Any]]:
    """One child process per workload, one after the other: nothing else
    may compete for this host's two cores while a repetition is timed.
    Only under ``--smoke``, whose timings nobody keeps, do they overlap."""
    children = {}
    for name in names:
        children[name] = _spawn(name, args, trace_mode)
        if not args.smoke:
            children[name].wait()
    records = []
    for name, child in children.items():
        output, _ = child.communicate()
        if output:
            sys.stdout.write(output)
        ledger = OUT / f"ledger_{name}.json"
        # CHECK_FAILED: it measured and its record says which check failed
        if child.returncode not in (0, CHECK_FAILED) or not ledger.exists():
            raise SystemExit(
                f"bench_e2e: the {name} child died (exit status {child.returncode}) "
                "without a result"
            )
        records.append(json.loads(ledger.read_text())["workloads"][0])
    return records


def _repeat_check(names: List[str], args: argparse.Namespace) -> bool:
    """Two sets of the same code: every end-to-end difference against its
    bound (worsening only; simulated metrics and digests must be equal)."""
    sets = [_children(names, args, 0) for _ in range(2)]
    ok = all(record["correct"] for records in sets for record in records)
    print(f"\n{'workload':<20} {'metric':<28} {'set 1':>12} {'set 2':>12} {'worse by':>9} {'bound':>6}")
    for first, second in zip(*sets):
        if first["sim_digest"] != second["sim_digest"]:
            ok = False
            print(f"{first['workload']:<20} sim_digest differs between the two sets")
        for metric, spec in E2E.items():
            a = first["end_to_end"][metric]["value"]
            b = second["end_to_end"][metric]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            exact = metric.startswith("sim_")
            passed = a == b if exact else abs(worse) <= spec["bound"]
            ok = ok and passed
            print(f"{first['workload']:<20} {metric:<28} {a:>12.5g} {b:>12.5g} "
                  f"{worse:>+9.2%} {'exact' if exact else format(spec['bound'], '.0%'):>6}"
                  f"{'' if passed else '  EXCEEDED'}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(cells.CELLS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; 2 is held out for later claims)")
    # one knob, two spellings: the driver speaks --seconds, people --reps
    count = parser.add_mutually_exclusive_group()
    count.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                       help=f"host seconds of timed repetitions: buys seconds // "
                            f"{NOMINAL_REP_S} of them, never fewer than {MIN_REPS}")
    count.add_argument("--reps", type=int, default=None,
                       help="timed repetitions, given directly")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only; unset: both")
    parser.add_argument("--json", metavar="OUT", help="write the full ledger document here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"horizons / {SMOKE_DIVISOR}, 2 reps: exercises every check quickly")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two sets and compare every end-to-end metric with its bound")
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 2 if args.smoke else max(MIN_REPS, int(args.seconds // NOMINAL_REP_S))
    if not 1 <= args.reps <= cells.REP_STRIDE:
        parser.error(f"--reps must be 1..{cells.REP_STRIDE}")
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)

    names = [args.workload] if args.workload else list(cells.CELLS)
    if args.repeat_check:
        return 0 if _repeat_check(names, args) else CHECK_FAILED
    if args.workload:
        records = [run_workload(args.workload, args.seed, args.reps, args.trace, args.smoke)]
        _print_record(records[0])
    else:
        records = _children(names, args, args.trace)
        bad = [record["workload"] for record in records if not record["correct"]]
        print(f"# ledger: {len(records)} workloads, "
              + (f"CHECKS FAILED on {', '.join(bad)}" if bad else "every check passed"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(_payload(records, args), fh, indent=1)
            fh.write("\n")
    if args.workload and args.trace is not None:
        print(_result_line(records[0], args.trace))
    return 0 if all(record["correct"] for record in records) else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
