"""DES-kernel microbenchmark — raw events/sec of the schedule-pop loop.

Measures ``Environment.run`` (heap pop, timeout firing, callback
dispatch) in isolation — no D-STM layers, no network.  It is a
floor and a trajectory, not the perf surface: a real cell runs at about
a fifth of these rates and kernel changes are judged on the end-to-end
ledger (``benchmarks/e2e/run.py``).  Four workloads of increasing
callback weight:

* ``timeout-chain`` — N independent processes, each a tight
  yield-timeout loop: the pure pop/fire/resume path;
* ``event-wakeup`` — processes waiting on bare events succeeded from a
  timeout callback: the succeed()-then-process path;
* ``anyof-race`` — processes racing an event against a timeout deadline
  in an AnyOf, the RPC wait-with-deadline shape from ``Node.request``;
* ``message-storm`` — a stress band, not a model of any cell: bursts of
  deliveries quantized to the millisecond link grid (many events tied
  at one timestamp) over 100 x 1000 = 100 000 standing far-future
  timers, 330x the largest pending population of any ledger or fault
  cell (305 entries; directory leases are a lazily checked field, not
  timers).  It is the one workload where the calendar queue the heap
  replaced was faster; BENCH_KERNEL.json records both directions.

Usage::

    python benchmarks/bench_kernel.py                 # all workloads
    python benchmarks/bench_kernel.py --procs 200 --events 400000
    python benchmarks/bench_kernel.py --min-eps 100000   # CI floor
    python benchmarks/bench_kernel.py --json out.json    # machine-readable
    python benchmarks/bench_kernel.py --profile --folded kernel.folded
    pytest benchmarks/bench_kernel.py                 # smoke assertions

``--json`` output is trajectory-ready: it carries the bench id, date,
git SHA and host fingerprint, so ``python -m repro.prof.trend append``
can record it into BENCH_HISTORY.jsonl directly.
"""

import argparse
import json
import os
import platform
import sys
import time

if __package__ in (None, ""):  # executed as a script: self-locate
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(_root, "src"))
    sys.path.insert(0, _root)

from repro.prof.trend import head_sha
from repro.sim import Environment, SimulationError

DEFAULT_PROCS = 100
DEFAULT_EVENTS = 200_000


def _timeout_chain(env, delay):
    while True:
        yield env.timeout(delay)


def _event_wakeup(env):
    while True:
        ev = env.event()
        env.timeout(0.001, value=ev).add_callback(
            lambda t: t.value.succeed(None)
        )
        yield ev


def _anyof_race(env):
    toggle = 0
    while True:
        ev = env.event()
        deadline = env.timeout(0.002)
        if toggle:
            env.timeout(0.001, value=ev).add_callback(
                lambda t: t.value.succeed("won")
            )
        toggle ^= 1
        yield ev | deadline


def _message_storm(env, node, fanout=16, leases=1000):
    # The standing far band: ``leases`` timers per process armed far
    # beyond the bench window, so every short-horizon push and pop sifts
    # through a heap 100 000 deep at the default 100 processes.  No cell
    # of the ledger holds such a band (see the module docstring); this
    # measures how the schedule degrades if one ever did.
    for j in range(leases):
        env.timeout(60.0 + 0.5 * (node * leases + j))
    # Delivery bursts on the 1-5 ms link-hop grid: every process resumed
    # in the same slot computes the same hop, so burst deliveries tie
    # timestamp-exactly across the resumed cohort.
    wave = 0
    while True:
        wave += 1
        slot_ms = int(round(env.now * 1000.0))
        hop = 0.001 * (1 + slot_ms % 5)
        deliveries = [env.timeout(hop + 0.001 * k) for k in range(fanout)]
        if (node + wave) % 32 == 0:
            env.timeout(90.0 + 0.001 * node)
        yield deliveries[node % fanout]


def _drive(build, procs, events, profiler=None):
    """Run ~``events`` kernel events through ``procs`` processes.

    Returns host-side events/sec of the *steady state*: a short untimed
    warmup drains the process bootstraps and one-time setup (e.g. the
    message-storm lease band arming ``leases`` timers per process), so
    the measurement window holds only the recurring event mix.  The
    timed run is cut off by the kernel's ``max_events`` guard — the
    exception is the intended stop signal here, and ``events_processed``
    stays exact across it.
    """
    env = Environment()
    if profiler is not None:
        profiler.install(env)
    for i in range(procs):
        env.process(build(env, i), name=f"w{i}")
    try:
        env.run(max_events=2 * procs)
    except SimulationError:
        pass
    warmed = env.events_processed
    start = time.perf_counter()
    try:
        env.run(max_events=events)
    except SimulationError:
        pass
    elapsed = time.perf_counter() - start
    measured = env.events_processed - warmed
    return measured / elapsed if elapsed > 0 else 0.0


def bench_timeout_chain(procs, events, profiler=None):
    return _drive(lambda env, i: _timeout_chain(env, 0.001 * (1 + i % 7)),
                  procs, events, profiler)


def bench_event_wakeup(procs, events, profiler=None):
    return _drive(lambda env, i: _event_wakeup(env), procs, events, profiler)


def bench_anyof_race(procs, events, profiler=None):
    return _drive(lambda env, i: _anyof_race(env), procs, events, profiler)


def bench_message_storm(procs, events, profiler=None):
    return _drive(lambda env, i: _message_storm(env, i), procs, events,
                  profiler)


WORKLOADS = {
    "timeout-chain": bench_timeout_chain,
    "event-wakeup": bench_event_wakeup,
    "anyof-race": bench_anyof_race,
    "message-storm": bench_message_storm,
}


# ---------------------------------------------------------------------------
# smoke assertions (pytest)
# ---------------------------------------------------------------------------


def test_kernel_sustains_throughput():
    """The run loop must stay comfortably above CI noise floor."""
    eps = bench_timeout_chain(procs=50, events=50_000)
    assert eps > 20_000, f"kernel unreasonably slow: {eps:.0f} events/s"


def test_all_workloads_complete():
    for name, fn in WORKLOADS.items():
        assert fn(procs=10, events=5_000) > 0, name


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def host_fingerprint():
    """Host metadata for trajectory rows (BENCH_PAR.json's host shape)."""
    return {
        "os_cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
    }


def git_sha():
    """Short HEAD SHA, or None outside a git checkout."""
    return head_sha(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--procs", type=int, default=DEFAULT_PROCS,
                        help="concurrent simulated processes")
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS,
                        help="kernel events per workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default=None, help="run only this workload")
    parser.add_argument("--min-eps", type=float, default=None, metavar="EPS",
                        help="fail (exit 1) if any workload falls below this "
                             "events/sec floor — a loose hot-path regression "
                             "tripwire for CI")
    parser.add_argument("--json", metavar="OUT.JSON", default=None,
                        help="also write per-workload events/sec as JSON "
                             "(trajectory-ready for repro.prof.trend)")
    parser.add_argument("--profile", action="store_true",
                        help="attribute the run with the kernel profiler "
                             "(wall mode) and print the top sites")
    parser.add_argument("--folded", metavar="OUT.FOLDED", default=None,
                        help="with --profile: write folded flamegraph stacks")
    args = parser.parse_args(argv)

    profiler = None
    if args.profile or args.folded:
        from repro.prof import KernelProfiler

        profiler = KernelProfiler(wall=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    print(f"kernel microbenchmark: {args.procs} procs, "
          f"{args.events} events per workload"
          + (" [profiled]" if profiler else ""))
    measured = {}
    for name in names:
        eps = WORKLOADS[name](args.procs, args.events, profiler)
        measured[name] = round(eps)
        print(f"  {name:<16} {eps:>12,.0f} events/s")
    if profiler is not None:
        snap = profiler.snapshot()
        print(f"\nkernel profile ({snap['events']} events, {snap['mode']}):")
        for row in snap["top"]:
            wall = f" {row['wall_us']:>10,}us" if "wall_us" in row else ""
            print(f"  {row['event']:<10} {row['site']:<24} "
                  f"{row['count']:>10,}{wall}")
        if args.folded:
            profiler.write_folded(args.folded)
            print(f"folded stacks written to {args.folded}")
    if args.json:
        payload = {"bench": "bench_kernel",
                   "date": time.strftime("%Y-%m-%d"),
                   "git_sha": git_sha(),
                   "host": host_fingerprint(),
                   "procs": args.procs, "events": args.events,
                   "events_per_sec": measured}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.min_eps is not None:
        slow = {n: e for n, e in measured.items() if e < args.min_eps}
        if slow:
            print(f"FAIL: below --min-eps {args.min_eps:,.0f} floor: {slow}")
            return 1
        print(f"ok: all workloads above {args.min_eps:,.0f} events/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
