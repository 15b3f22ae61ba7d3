"""Run-report CLI over an exported observability log.

Usage::

    python -m repro.obs.report run.jsonl
    python -m repro.obs.report run.jsonl --top 5
    python -m repro.obs.report run.jsonl --chrome run.trace.json
    python -m repro.obs.report run.jsonl --json

Reads the JSONL event log one line at a time, checks every event against
the schema (a malformed line exits 1 with one ``schema error:`` line
naming the file and line; a missing file exits 1 with one ``error:``
line),
folds spans with the same :class:`~repro.obs.spans.SpanBuilder` and
:class:`~repro.obs.spans.PhaseSamples` as the run's
:class:`~repro.obs.spans.LiveFold` — so the phase rows equal a run's
``extra["obs"]["phases"]`` exactly — and prints:

* a run overview (event count, simulated time range);
* the per-node table — commits, aborts, abort ratio, throughput, RPC
  traffic, mean RPC in-flight, lookup-cache hit rate, and the
  unreachability EWMA;
* the top contended objects — conflicts, ownership migrations, mean and
  max queue depth;
* the RPC piggyback-batching summary (flushes, coalesced messages, mean
  and max batch size) when batching was on;
* span-phase latency percentiles (p50/p95/p99, exact);
* the critical-path latency anatomy — every committed root's sojourn
  decomposed into exact blame segments (:mod:`repro.prof.anatomy`);
* the wasted-work table — aborted-attempt sim-time by cause and node
  (:mod:`repro.prof.wasted`);
* the scheduler-decision histogram (action x cause);
* the fault timeline (first events, with a truncation note; the cutoff
  is ``--max-fault-lines``).

``--chrome OUT`` additionally exports the log as a Chrome
``trace_event`` file (Perfetto-loadable); this is the one way to get
one.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.obs.chrome import ChromeTraceWriter
from repro.obs.events import SchemaError, validate_event
from repro.obs.series import WINDOW, SeriesTracker
from repro.obs.spans import PhaseSamples, SpanBuilder, SpanList

__all__ = ["load_events", "main", "render", "summarize"]


def load_events(path: str) -> Iterator[Dict[str, Any]]:
    """Stream schema-checked events from a JSONL file, skipping blank lines.

    The one JSONL reader: a line that is not JSON, or not a schema event,
    raises :class:`SchemaError` naming ``path:lineno``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                validate_event(event)
            except SchemaError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from exc
            yield event


def summarize(
    events: Iterable[Dict[str, Any]],
    window: float = WINDOW,
    top: int = 10,
    chrome: Optional[ChromeTraceWriter] = None,
) -> Dict[str, Any]:
    """Reduce a stream of schema events (:func:`load_events`) to the
    report's summary dict."""
    series = SeriesTracker(window=window)
    samples = PhaseSamples()
    completed = SpanList()
    consumers = [samples, completed] if chrome is None else [samples, completed, chrome]
    spans = SpanBuilder(*consumers)
    dispatch: Dict[str, float] = {}
    for event in events:
        series.feed(event)
        spans.feed(event)
        if event["cat"] == "traffic.dispatch":
            # task id -> admission-queue arrival, for latency anatomy
            dispatch[event["sub"]] = float(event["arrived"])
        if chrome is not None:
            chrome.feed(event)

    summary = {
        "window": window,
        "events": series.events,
        "t_min": series.t_min or 0.0,
        "t_max": series.t_max,
        "spans": len(completed),
        "open_spans": len(spans._open),
        "nodes": series.node_rows(),
        "objects": series.object_rows(top=top),
        "decisions": series.decision_rows(),
        "batching": series.batch_row(),
        "phases": samples.rows(),
        "faults": list(series.faults),
        "faults_dropped": series.faults_dropped,
    }
    # Present only for open-loop runs (traffic.* events in the log); the
    # key's absence keeps closed-loop summaries byte-identical.
    if series.traffic:
        summary["traffic"] = series.traffic_summary()
    # Present only for payload-plane runs (payload.fetch events).
    if series.payload:
        summary["payload"] = series.payload_summary()
    # Latency anatomy + wasted work (repro.prof) — present whenever the
    # log carries spans; span-free logs keep the old summary shape.
    if completed:
        from repro.prof import analyze_paths, anatomy_summary, wasted_summary

        shed_by_node = {
            tag: tr.shed
            for tag, tr in sorted(series.traffic.items())
            if tr.shed
        }
        summary["anatomy"] = anatomy_summary(analyze_paths(completed, dispatch))
        summary["wasted"] = wasted_summary(
            completed,
            shed=sum(shed_by_node.values()),
            shed_by_node=shed_by_node,
        )
    return summary


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def render(summary: Dict[str, Any], fault_limit: int = 12) -> str:
    """Human-readable multi-section report."""
    out: List[str] = []
    span = summary["t_max"] - summary["t_min"]
    out.append(
        f"run: {summary['events']} events over "
        f"[{summary['t_min']:.3f}s, {summary['t_max']:.3f}s] "
        f"({span:.3f}s), {summary['spans']} spans"
        + (f", {summary['open_spans']} unterminated" if summary["open_spans"] else "")
    )

    if summary["nodes"]:
        out.append("\n## per-node")
        out.append(
            _table(
                ["node", "commits", "aborts", "abort%", "tx/s", "peak tx/s",
                 "rpcs", "rpc fail", "inflight", "cache%", "unreach"],
                [
                    [
                        r["node"], str(r["commits"]), str(r["aborts"]),
                        f"{r['abort_ratio'] * 100:.1f}",
                        f"{r['throughput']:.1f}", f"{r['peak_window_tps']:.1f}",
                        str(r["rpc_issued"]), str(r["rpc_failed"]),
                        f"{r['mean_inflight']:.2f}",
                        (
                            f"{r['cache_hit_rate'] * 100:.1f}"
                            if r.get("cache_hits", 0) + r.get("cache_misses", 0)
                            else "-"
                        ),
                        f"{r['unreach']:.3f}",
                    ]
                    for r in summary["nodes"]
                ],
            )
        )

    if summary["objects"]:
        out.append("\n## top contended objects")
        out.append(
            _table(
                ["oid", "conflicts", "migrations", "mean queue", "max queue"],
                [
                    [
                        r["oid"], str(r["conflicts"]), str(r["migrations"]),
                        f"{r['mean_queue']:.3f}", str(r["max_queue"]),
                    ]
                    for r in summary["objects"]
                ],
            )
        )

    if summary["phases"]:
        out.append("\n## span phases (ms)")
        out.append(
            _table(
                ["phase", "count", "mean", "p50", "p95", "p99"],
                [
                    [
                        name, str(row["count"]), _ms(row["mean"]),
                        _ms(row["p50"]), _ms(row["p95"]), _ms(row["p99"]),
                    ]
                    for name, row in summary["phases"].items()
                ],
            )
        )

    traffic = summary.get("traffic")
    if traffic:
        out.append("\n## open-loop traffic")
        out.append(
            f"  offered {traffic['offered']} "
            f"({traffic['offered_rate']:.1f} tx/s) | "
            f"admitted {traffic['admitted']} "
            f"({traffic['admitted_rate']:.1f} tx/s) | "
            f"committed {traffic['committed']} "
            f"({traffic['committed_rate']:.1f} tx/s) | "
            f"shed {traffic['shed']} ({traffic['shed_rate'] * 100:.1f}%) | "
            f"queue p95 {traffic['p95_depth']:.0f}"
        )
        if traffic["nodes"]:
            out.append(
                _table(
                    ["node", "offered", "admitted", "shed", "shed%",
                     "offered tx/s", "mean depth", "p95 depth", "max depth",
                     "wait ms", "max wait"],
                    [
                        [
                            r["node"], str(r["offered"]), str(r["admitted"]),
                            str(r["shed"]), f"{r['shed_rate'] * 100:.1f}",
                            f"{r['offered_rate']:.1f}",
                            f"{r['mean_depth']:.2f}",
                            f"{r['p95_depth']:.0f}", str(r["max_depth"]),
                            _ms(r.get("mean_wait", 0.0)),
                            _ms(r.get("max_wait", 0.0)),
                        ]
                        for r in traffic["nodes"]
                    ],
                )
            )

    payload = summary.get("payload")
    if payload:
        out.append("\n## payload plane")
        out.append(
            f"  {payload['resolves']} resolves | "
            f"hits {payload['hits']} "
            f"({payload['hit_rate'] * 100:.1f}%) | "
            f"misses {payload['misses']} | "
            f"fetched {payload['fetched_bytes']} bytes"
        )
        if payload["nodes"]:
            out.append(
                _table(
                    ["node", "resolves", "hits", "misses", "hit%",
                     "fetched bytes"],
                    [
                        [
                            r["node"], str(r["resolves"]), str(r["hits"]),
                            str(r["misses"]), f"{r['hit_rate'] * 100:.1f}",
                            str(r["fetched_bytes"]),
                        ]
                        for r in payload["nodes"]
                    ],
                )
            )

    anatomy = summary.get("anatomy")
    if anatomy and anatomy.get("roots"):
        from repro.prof import SEGMENTS

        out.append("\n## latency anatomy (committed roots)")
        out.append(
            f"  {anatomy['roots']} chains | sojourn mean "
            f"{_ms(anatomy['mean_sojourn'])}ms p50 {_ms(anatomy['p50_sojourn'])} "
            f"p95 {_ms(anatomy['p95_sojourn'])} p99 {_ms(anatomy['p99_sojourn'])} | "
            f"mean attempts {anatomy['mean_attempts']:.2f} | "
            f"residual {anatomy['max_residual']:.2e}"
        )
        segs = anatomy["segments"]
        p99 = anatomy["p99_segments"]
        out.append(
            _table(
                ["segment", "total ms", "share%", "mean ms", "p99 share%"],
                [
                    [
                        name,
                        _ms(segs[name]["total"]),
                        f"{segs[name]['share'] * 100:.1f}",
                        _ms(segs[name]["mean"]),
                        f"{p99[name] * 100:.1f}",
                    ]
                    for name in SEGMENTS
                ],
            )
        )

    wasted = summary.get("wasted")
    if wasted and (wasted.get("attempts") or wasted.get("shed")):
        out.append("\n## wasted work")
        out.append(
            f"  {_ms(wasted['wasted_time'])}ms over {wasted['attempts']} "
            f"aborted attempts | committed-attempt time "
            f"{_ms(wasted['committed_time'])}ms | wasted fraction "
            f"{wasted['wasted_fraction'] * 100:.1f}% | nested "
            f"{wasted['nested_attempts']} attempts "
            f"{_ms(wasted['nested_time'])}ms | parent-caused cascade "
            f"{wasted['parent_caused_attempts']} attempts "
            f"({wasted['nested_parent_rate'] * 100:.1f}% of nested aborts) "
            f"| shed {wasted['shed']}"
        )
        for title, rows in (
            ("cause", wasted["by_cause"]),
            ("node", wasted["by_node"]),
            ("profile", wasted["by_profile"]),
        ):
            if rows:
                out.append(
                    _table(
                        [title, "attempts", "time ms", "share%"],
                        [
                            [
                                r["key"], str(r["attempts"]),
                                _ms(r["time"]), f"{r['share'] * 100:.1f}",
                            ]
                            for r in rows
                        ],
                    )
                )

    batching = summary.get("batching") or {}
    if batching.get("batches"):
        out.append("\n## rpc batching")
        out.append(
            f"  {batching['batches']} flushes carrying "
            f"{batching['batched_messages']} messages "
            f"(mean {batching['mean_batch']:.2f}, "
            f"max {batching['max_batch']} per batch)"
        )

    if summary["decisions"]:
        out.append("\n## scheduler decisions")
        out.append(
            _table(
                ["action", "cause", "count"],
                [
                    [r["action"], r["cause"], str(r["count"])]
                    for r in summary["decisions"]
                ],
            )
        )

    faults = summary["faults"]
    if faults:
        out.append(f"\n## fault timeline ({len(faults)} events)")
        for t, cat, sub in faults[:fault_limit]:
            out.append(f"  {t:10.4f}s  {cat:<22} {sub}")
        hidden = len(faults) - fault_limit + summary.get("faults_dropped", 0)
        if hidden > 0:
            out.append(f"  ... {hidden} more")

    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("jsonl", help="exported JSONL event log")
    parser.add_argument("--window", type=float, default=WINDOW,
                        help="time-series window (simulated seconds)")
    parser.add_argument("--top", type=int, default=10,
                        help="how many contended objects to list")
    parser.add_argument("--chrome", metavar="OUT",
                        help="also export a Chrome trace_event JSON file")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the summary as JSON instead of tables")
    parser.add_argument("--max-fault-lines", type=int, default=12,
                        help="fault-timeline lines before truncation")
    args = parser.parse_args(argv)

    chrome = ChromeTraceWriter(args.chrome) if args.chrome else None
    try:
        summary = summarize(
            load_events(args.jsonl),
            window=args.window, top=args.top, chrome=chrome,
        )
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if chrome is not None:
            chrome.close()

    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render(summary, fault_limit=args.max_fault_lines))
        if chrome is not None:
            print(f"\nchrome trace written to {chrome.path} ({chrome.count} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
