"""The perf-trajectory harness: BENCH_HISTORY.jsonl and its CLI.

``BENCH_HISTORY.jsonl`` is the repository's performance trajectory: one
JSON object per line, schema version 1::

    {"schema": 1, "bench": "bench_kernel", "date": "2026-08-05",
     "git_sha": "4f658b6", "host": {"python": "3.11.7", ...},
     "metrics": {"timeout-chain": 661236, ...}, "note": "..."}

``metrics`` values are numbers; their direction (higher- or
lower-is-better) is a property of the *check*, not the row, so the same
history can hold events/sec and wall-clock seconds side by side.

CLI (``python -m repro.prof.trend``)::

    trend append HISTORY RUN.json --bench bench_kernel   # record a run
    trend show HISTORY [--bench B]                       # trajectory table
    trend check HISTORY --bench B --floor 50000          # absolute floor
    trend check HISTORY --bench B --regress-pct 20       # vs best previous
    trend seed HISTORY --par BENCH_PAR.json --serving BENCH_SERVING.json \
        --payload BENCH_PAYLOAD.json

``append`` accepts either a row-shaped payload or the raw
``bench_kernel --json`` output (its ``events_per_sec`` map becomes the
metrics).  A row must be attributable: a payload without ``git_sha``
gets the short HEAD sha of the checkout the history file lives in, and
a row still lacking ``git_sha`` or ``host``, or stamped ``<sha>-dirty``
(code that is in no commit), is refused unless ``--sha`` names the
commit by hand.  ``check`` exits non-zero on a violated floor
or a regression beyond the threshold — the CI perf-trend job gates on
it.  All output is byte-deterministic for a fixed input (dates come from
the payload or ``--date``; this module never reads the wall clock).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "append_row",
    "check_history",
    "head_sha",
    "load_history",
    "main",
    "render_show",
    "row_from_payload",
    "seed_rows",
    "validate_row",
]

SCHEMA_VERSION = 1


class TrendError(ValueError):
    """A history row or run payload violates the trajectory schema."""


def validate_row(row: Any) -> None:
    """Raise :class:`TrendError` unless ``row`` is schema-conformant."""
    if not isinstance(row, dict):
        raise TrendError(f"row must be an object, got {type(row).__name__}")
    if row.get("schema") != SCHEMA_VERSION:
        raise TrendError(f"unsupported schema {row.get('schema')!r} in {row}")
    for key, kind in (("bench", str), ("date", str)):
        if not isinstance(row.get(key), kind):
            raise TrendError(f"row needs a {key!r} string: {row}")
    metrics = row.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise TrendError(f"row needs a non-empty metrics object: {row}")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TrendError(f"metric {name!r} must be a number, got {value!r}")
    host = row.get("host")
    if host is not None and not isinstance(host, dict):
        raise TrendError(f"host must be an object or absent: {row}")


def load_history(path: str) -> List[Dict[str, Any]]:
    """Read and validate a BENCH_HISTORY.jsonl file."""
    rows: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return rows
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TrendError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                validate_row(row)
            except TrendError as exc:
                raise TrendError(f"{path}:{lineno}: {exc}") from exc
            rows.append(row)
    return rows


def row_from_payload(
    payload: Dict[str, Any],
    bench: Optional[str] = None,
    date: Optional[str] = None,
    git_sha: Optional[str] = None,
    note: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a schema row from a benchmark's ``--json`` payload.

    Accepts row-shaped payloads (``metrics`` present) and the
    ``bench_kernel --json`` shape (``events_per_sec`` map).
    """
    metrics = payload.get("metrics")
    if metrics is None and isinstance(payload.get("events_per_sec"), dict):
        metrics = payload["events_per_sec"]
    if not isinstance(metrics, dict) or not metrics:
        raise TrendError(
            "payload has neither a 'metrics' nor an 'events_per_sec' object"
        )
    row: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "bench": bench or payload.get("bench") or "unknown",
        "date": date or payload.get("date") or "unknown",
        "git_sha": git_sha or payload.get("git_sha"),
        "host": payload.get("host"),
        "metrics": dict(metrics),
    }
    if note or payload.get("note"):
        row["note"] = note or payload["note"]
    validate_row(row)
    return row


def head_sha(directory: str) -> Optional[str]:
    """Short HEAD sha of the git checkout containing ``directory``, or
    None outside one (or without git)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=directory,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def append_row(path: str, row: Dict[str, Any]) -> None:
    """Append one validated row to the history (canonical JSON line)."""
    validate_row(row)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# diff / regression check
# ---------------------------------------------------------------------------


def check_history(
    rows: List[Dict[str, Any]],
    bench: str,
    metric: Optional[str] = None,
    floor: Optional[float] = None,
    regress_pct: Optional[float] = None,
    direction: str = "higher",
) -> Tuple[bool, List[str]]:
    """Gate the latest ``bench`` row against a floor and/or the baseline.

    * ``floor`` — every checked metric of the latest row must be >= it
      (or <= it when ``direction='lower'``);
    * ``regress_pct`` — the latest row must not be worse than the *best
      previous* row by more than this percentage, per metric (skipped
      with a note when there is no previous row).

    Returns ``(ok, messages)``; messages are deterministic.
    """
    if direction not in ("higher", "lower"):
        raise TrendError(f"direction must be 'higher' or 'lower', got {direction!r}")
    history = [r for r in rows if r["bench"] == bench]
    if not history:
        return False, [f"no rows for bench {bench!r}"]
    latest = history[-1]
    names = [metric] if metric else sorted(latest["metrics"])
    higher = direction == "higher"
    ok = True
    messages: List[str] = []
    for name in names:
        value = latest["metrics"].get(name)
        if value is None:
            ok = False
            messages.append(f"FAIL {name}: missing from the latest row")
            continue
        if floor is not None:
            passed = value >= floor if higher else value <= floor
            verdict = "ok" if passed else "FAIL"
            cmp = ">=" if higher else "<="
            messages.append(f"{verdict} {name}: {value:g} {cmp} floor {floor:g}")
            ok = ok and passed
        if regress_pct is not None:
            previous = [
                r["metrics"][name] for r in history[:-1] if name in r["metrics"]
            ]
            if not previous:
                messages.append(f"ok {name}: no previous row (baseline starts here)")
                continue
            baseline = max(previous) if higher else min(previous)
            if baseline == 0:
                messages.append(f"ok {name}: zero baseline, nothing to compare")
                continue
            delta_pct = (
                (baseline - value) / abs(baseline) if higher
                else (value - baseline) / abs(baseline)
            ) * 100.0
            passed = delta_pct <= regress_pct
            verdict = "ok" if passed else "FAIL"
            messages.append(
                f"{verdict} {name}: {value:g} vs baseline {baseline:g} "
                f"({'-' if delta_pct >= 0 else '+'}{abs(delta_pct):.1f}%, "
                f"allowed {regress_pct:g}%)"
            )
            ok = ok and passed
    return ok, messages


def render_show(rows: List[Dict[str, Any]], bench: Optional[str] = None) -> str:
    """Trajectory table: one line per run, metric deltas vs the first."""
    shown = [r for r in rows if bench is None or r["bench"] == bench]
    if not shown:
        return "history is empty" if bench is None else f"no rows for {bench!r}"
    out: List[str] = []
    benches = sorted({r["bench"] for r in shown})
    for b in benches:
        series = [r for r in shown if r["bench"] == b]
        first = series[0]["metrics"]
        out.append(f"{b} ({len(series)} runs)")
        for row in series:
            sha = row.get("git_sha") or "-"
            parts = []
            for name in sorted(row["metrics"]):
                value = row["metrics"][name]
                base = first.get(name)
                if base not in (None, 0) and row is not series[0]:
                    parts.append(f"{name}={value:g} ({value / base:.2f}x)")
                else:
                    parts.append(f"{name}={value:g}")
            out.append(f"  {row['date']}  {str(sha)[:10]:<10} " + "  ".join(parts))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# legacy normalisation (BENCH_PAR.json / BENCH_SERVING.json)
# ---------------------------------------------------------------------------


def seed_rows(
    par: Optional[Dict[str, Any]] = None,
    serving: Optional[Dict[str, Any]] = None,
    payload: Optional[Dict[str, Any]] = None,
    git_sha: Optional[str] = None,
    date: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Normalise the pre-schema perf artifacts into trajectory rows.

    BENCH_PAR.json contributes the kernel events/sec trajectory (its
    before/after pair becomes two ``bench_kernel`` rows) plus one
    ``fig4_sweep`` wall-clock row; BENCH_SERVING.json contributes the
    bisection capacities as one ``bench_serving`` row;
    BENCH_PAYLOAD.json contributes the per-commit grant bytes and proxy
    hit rates across the size axis as one ``bench_payload`` row.
    """
    rows: List[Dict[str, Any]] = []
    if par is not None:
        date = par.get("date") or date or "unknown"
        host = par.get("host")
        if isinstance(host, dict):
            # keep the machine fingerprint, drop prose annotations
            host = {k: v for k, v in host.items() if k != "note"}
        kernel = par.get("kernel_events_per_sec", {})
        for key, note in (
            ("before_slots_and_inlining", "pre hot-path pass"),
            ("after_slots_and_inlining", "post hot-path pass (PR 5)"),
        ):
            metrics = kernel.get(key)
            if isinstance(metrics, dict) and metrics:
                rows.append(
                    {
                        "schema": SCHEMA_VERSION,
                        "bench": "bench_kernel",
                        "date": date,
                        "git_sha": git_sha,
                        "host": host,
                        "metrics": dict(metrics),
                        "note": note,
                    }
                )
        sweep = par.get("sweep_wall_clock_seconds", {})
        sweep_metrics = {
            name: sweep[name]
            for name in (
                "serial_jobs1", "jobs4_cold_cache", "jobs4_warm_cache",
            )
            if isinstance(sweep.get(name), (int, float))
        }
        if sweep_metrics:
            rows.append(
                {
                    "schema": SCHEMA_VERSION,
                    "bench": "fig4_sweep",
                    "date": date,
                    "git_sha": git_sha,
                    "host": host,
                    "metrics": sweep_metrics,
                    "note": sweep.get("command", "repro.par sweep wall clock"),
                }
            )
    if serving is not None:
        bisection = serving.get("bisection", {})
        metrics = {
            f"max_rate_{sched}": data["max_rate"]
            for sched, data in sorted(bisection.items())
            if isinstance(data, dict) and isinstance(
                data.get("max_rate"), (int, float)
            )
        }
        if metrics:
            rows.append(
                {
                    "schema": SCHEMA_VERSION,
                    "bench": "bench_serving",
                    "date": serving.get("date") or date or "unknown",
                    "git_sha": git_sha or serving.get("git_sha"),
                    "host": serving.get("host"),
                    "metrics": metrics,
                    "note": "max sustainable offered rate (bisection), tx/s",
                }
            )
    if payload is not None:
        metrics = {}
        for cell in payload.get("table", []):
            mode, size = cell.get("mode"), cell.get("size")
            bpc = cell.get("grant_bytes_per_commit")
            if not isinstance(bpc, (int, float)) or mode not in (
                "eager", "proxy",
            ):
                continue
            metrics[f"grant_bpc_{mode}_{size}"] = bpc
            if mode == "proxy" and isinstance(
                cell.get("hit_rate"), (int, float)
            ):
                metrics[f"hit_rate_proxy_{size}"] = cell["hit_rate"]
        if metrics:
            rows.append(
                {
                    "schema": SCHEMA_VERSION,
                    "bench": "bench_payload",
                    "date": payload.get("date") or date or "unknown",
                    "git_sha": git_sha,
                    "host": payload.get("host"),
                    "metrics": metrics,
                    "note": "grant bytes per commit and proxy resolve "
                            "hit rate across the payload-size axis",
                }
            )
    for row in rows:
        validate_row(row)
    return rows


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.prof.trend", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser("append", help="record a benchmark run")
    p_append.add_argument("history", help="BENCH_HISTORY.jsonl path")
    p_append.add_argument("run", help="benchmark --json payload")
    p_append.add_argument("--bench", default=None, help="bench id override")
    p_append.add_argument("--date", default=None, help="ISO date override")
    p_append.add_argument("--sha", default=None,
                          help="git SHA override (also admits a row "
                               "without a host fingerprint or stamped "
                               "-dirty)")
    p_append.add_argument("--note", default=None)

    p_show = sub.add_parser("show", help="print the trajectory table")
    p_show.add_argument("history")
    p_show.add_argument("--bench", default=None)

    p_check = sub.add_parser("check", help="gate the latest run (CI)")
    p_check.add_argument("history")
    p_check.add_argument("--bench", required=True)
    p_check.add_argument("--metric", default=None,
                         help="check one metric (default: all in latest row)")
    p_check.add_argument("--floor", type=float, default=None,
                         help="absolute floor the latest value must clear")
    p_check.add_argument("--regress-pct", type=float, default=None,
                         help="max %% regression vs the best previous row")
    p_check.add_argument("--direction", choices=("higher", "lower"),
                         default="higher", help="which way is better")

    p_seed = sub.add_parser(
        "seed", help="normalise BENCH_PAR/BENCH_SERVING into a history"
    )
    p_seed.add_argument("history")
    p_seed.add_argument("--par", default=None, metavar="BENCH_PAR.json")
    p_seed.add_argument("--serving", default=None, metavar="BENCH_SERVING.json")
    p_seed.add_argument("--payload", default=None, metavar="BENCH_PAYLOAD.json")
    p_seed.add_argument("--sha", default=None, help="git SHA to stamp rows with")
    p_seed.add_argument("--date", default=None,
                        help="fallback date for artifacts without one")

    args = parser.parse_args(argv)
    try:
        if args.command == "append":
            with open(args.run, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            sha = args.sha or payload.get("git_sha") or head_sha(
                os.path.dirname(os.path.abspath(args.history))
            )
            row = row_from_payload(
                payload, bench=args.bench, date=args.date,
                git_sha=sha, note=args.note,
            )
            if args.sha is None and (row["git_sha"] is None or row["host"] is None):
                missing = "git_sha" if row["git_sha"] is None else "host"
                raise TrendError(
                    f"refusing an unattributable row ({missing} is null): "
                    "record it from the benchmark's --json output inside "
                    "a git checkout, or name the commit with --sha"
                )
            if args.sha is None and row["git_sha"].endswith("-dirty"):
                raise TrendError(
                    f"refusing a row stamped {row['git_sha']}: its code is "
                    "in no commit — commit first and append from a clean "
                    "checkout, or name the commit with --sha"
                )
            load_history(args.history)  # validate before appending
            append_row(args.history, row)
            print(f"appended {row['bench']} @ {row['date']} to {args.history}")
            return 0
        if args.command == "show":
            print(render_show(load_history(args.history), bench=args.bench))
            return 0
        if args.command == "check":
            if args.floor is None and args.regress_pct is None:
                parser.error("check needs --floor and/or --regress-pct")
            ok, messages = check_history(
                load_history(args.history), args.bench,
                metric=args.metric, floor=args.floor,
                regress_pct=args.regress_pct, direction=args.direction,
            )
            for message in messages:
                print(message)
            return 0 if ok else 1
        if args.command == "seed":
            par = serving = payload = None
            if args.par:
                with open(args.par, "r", encoding="utf-8") as fh:
                    par = json.load(fh)
            if args.serving:
                with open(args.serving, "r", encoding="utf-8") as fh:
                    serving = json.load(fh)
            if args.payload:
                with open(args.payload, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            rows = seed_rows(
                par=par, serving=serving, payload=payload,
                git_sha=args.sha, date=args.date,
            )
            if not rows:
                print("nothing to seed (give --par, --serving "
                      "and/or --payload)")
                return 1
            for row in rows:
                append_row(args.history, row)
            print(f"seeded {len(rows)} rows into {args.history}")
            return 0
    except (TrendError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
