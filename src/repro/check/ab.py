"""Host-cost A/B pairs: is a change faster than its parent, and the same run?

``python -m repro.check.ab host PARENT CHANGE --workload W --pairs N
[--seed S] [--out RUN.json]`` checks out both commits as local ``git
worktree``\\ s (no network), then runs ``benchmarks/e2e/run.py --workload
W --seed S --trace 0`` once per side per pair, interleaved: the parent
runs first in odd pairs and the change first in even ones, both with
``PYTHONDONTWRITEBYTECODE=1`` so neither side times a warm bytecode
cache.  Each run's ``sim_digest`` comes from the ``# <cell> ...
sim_digest=...`` header of its full stdout (the last line, the result
object, carries none); its metrics come from that last line.

It prints one row: the ``host_us_per_commit`` medians, the parent's
interquartile range, the change's wins (ties count for neither), the
verdict and whether the digests — and every ``sim_*`` metric — were
equal on every pair.  The verdict is the rule of a claimed gain: the
change wins at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile range.  ``--out``
writes a row-shaped JSON that ``python -m repro.prof.trend append``
takes; it is refused under ``benchmarks/e2e/``, whose files a claim may
not touch.

Exit status: 0 = measured, every run passed its checks and the digests
were equal on every pair (an A/A run, ``host HEAD HEAD``, must exit 0);
1 = a run failed a check or the digests differed; 2 = bad arguments or
a git error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "iqr",
    "main",
    "pair_order",
    "parse_run",
    "run_host",
    "run_pairs",
    "verdict",
]

#: the metric a host pair is judged on (lower is better)
METRIC = "host_us_per_commit"
#: a claimed gain must win this share of the pairs
WIN_SHARE = 0.9
#: the ledger directory a claim may not write into
LEDGER_DIR = Path("benchmarks") / "e2e"

#: ``runner(checkout, workload, seed) -> full stdout`` of one run
Runner = Callable[[Path, str, int], str]


class AbError(RuntimeError):
    """A run's output could not be read, or git refused a checkout."""


# ----------------------------------------------------------------------
# one run's output
# ----------------------------------------------------------------------


def parse_run(stdout: str, workload: str) -> Dict[str, Any]:
    """The digest and metrics of one ``run.py --workload W --trace 0``.

    ``sim_digest`` is read from the ``# <workload> ...`` header line; the
    metrics, ``correct``, ``attempted`` and ``failed`` from the last
    line's JSON object.  Raises :class:`AbError` when either is missing.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise AbError(f"{workload}: the run printed nothing")
    digest = None
    prefix = f"# {workload} "
    for line in lines:
        if line.startswith(prefix):
            for field in line.split():
                if field.startswith("sim_digest="):
                    digest = field[len("sim_digest="):]
    if not digest:
        raise AbError(f"{workload}: no '{prefix}... sim_digest=' header in the output")
    try:
        result = json.loads(lines[-1])
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise AbError(f"{workload}: the last line is not a result object: {exc}") from exc
    if METRIC not in metrics:
        raise AbError(f"{workload}: the result has no {METRIC}")
    return {
        "sim_digest": digest,
        "metrics": metrics,
        "correct": bool(result.get("correct")),
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
    }


def same_run(parent: Dict[str, Any], change: Dict[str, Any]) -> bool:
    """Equal ``sim_digest`` and every ``sim_*`` metric digit for digit."""
    if parent["sim_digest"] != change["sim_digest"]:
        return False
    sims = sorted(name for name in parent["metrics"] if name.startswith("sim_"))
    return all(parent["metrics"][n] == change["metrics"].get(n) for n in sims)


# ----------------------------------------------------------------------
# the pairs and the verdict
# ----------------------------------------------------------------------


def pair_order(pairs: int) -> List[Tuple[str, str]]:
    """Which side runs first in each pair: the parent in odd pairs
    (1-based), the change in even ones."""
    return [
        ("parent", "change") if pair % 2 else ("change", "parent")
        for pair in range(1, pairs + 1)
    ]


def iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles (inclusive method); 0 for one value."""
    if len(values) < 2:
        return 0.0
    low, _median, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def verdict(parent: Sequence[float], change: Sequence[float]) -> Dict[str, Any]:
    """The claimed-gain rule on paired lower-is-better samples.

    ``gain`` holds when the change is lower on at least nine tenths of
    the pairs (ties count for neither side) and its median is lower than
    the parent's by more than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same positive number of samples per side")
    wins = sum(1 for p, c in zip(parent, change) if c < p)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    spread = iqr(parent)
    gain = wins >= WIN_SHARE * len(parent) and parent_median - change_median > spread
    return {
        "pairs": len(parent),
        "parent_median": parent_median,
        "change_median": change_median,
        "delta": change_median / parent_median - 1.0,
        "parent_iqr": spread,
        "wins": wins,
        "gain": gain,
    }


# ----------------------------------------------------------------------
# checkouts and runs
# ----------------------------------------------------------------------


def _git(repo: Path, *args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        raise AbError(f"git {' '.join(args)}: {detail.strip()}") from exc
    return done.stdout.strip()


def run_e2e(checkout: Path, workload: str, seed: int) -> str:
    """One ``run.py --trace 0`` in ``checkout``, compiled from source;
    returns its full stdout.  A check failure (exit 3) still returns:
    the result object says which check failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # run.py puts its own checkout's src first
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode not in (0, 3):
        last = (done.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise AbError(f"run.py in {checkout.name} exited {done.returncode}: {last}")
    return done.stdout


def run_pairs(
    checkouts: Dict[str, Path], workload: str, pairs: int, seed: int = 1,
    runner: Runner = run_e2e, log: Callable[[str], None] = lambda _line: None,
) -> Dict[str, Any]:
    """Run ``pairs`` interleaved pairs over the ``"parent"`` and
    ``"change"`` checkouts; returns the per-pair runs and the verdict."""
    if pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {pairs}")
    rows = []
    for number, order in enumerate(pair_order(pairs), start=1):
        runs = {side: parse_run(runner(checkouts[side], workload, seed), workload)
                for side in order}
        same = same_run(runs["parent"], runs["change"])
        rows.append({"pair": number, "first": order[0], "same": same, **runs})
        log(
            f"pair {number:>2} ({order[0]} first): {METRIC} "
            f"{runs['parent']['metrics'][METRIC]:.1f} -> "
            f"{runs['change']['metrics'][METRIC]:.1f}, digests "
            f"{'equal' if same else 'DIFFER'}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "metric": METRIC,
        "verdict": verdict(
            [row["parent"]["metrics"][METRIC] for row in rows],
            [row["change"]["metrics"][METRIC] for row in rows],
        ),
        "digests_equal": all(row["same"] for row in rows),
        "correct": all(
            row[side]["correct"] and not row[side]["failed"]
            for row in rows for side in ("parent", "change")
        ),
        "pairs": rows,
    }


def summary_row(result: Dict[str, Any]) -> str:
    """The one printed row."""
    v = result["verdict"]
    return (
        f"{result['workload']} seed={result['seed']} {result['metric']}: "
        f"parent {v['parent_median']:.1f} -> change {v['change_median']:.1f} us "
        f"({v['delta']:+.1%}), parent IQR {v['parent_iqr']:.1f}, "
        f"wins {v['wins']}/{v['pairs']}, "
        f"verdict {'gain' if v['gain'] else 'no gain'}, "
        f"digests {'equal on every pair' if result['digests_equal'] else 'DIFFER'}"
        + ("" if result["correct"] else ", a run FAILED a check")
    )


def trend_payload(
    result: Dict[str, Any], parent_sha: str, change_sha: str, date: str
) -> Dict[str, Any]:
    """Row-shaped for ``python -m repro.prof.trend append``."""
    v = result["verdict"]
    key = f"{result['workload']}.{result['metric']}"
    return {
        "schema": 1,
        "bench": "ab_host",
        "date": date,
        "git_sha": change_sha,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "parent_sha": parent_sha,
        "seed": result["seed"],
        "metrics": {
            key: v["change_median"],
            f"{key}.parent": v["parent_median"],
            f"{key}.parent_iqr": v["parent_iqr"],
            f"{key}.wins": v["wins"],
            f"{key}.pairs": v["pairs"],
            f"{key}.gain": int(v["gain"]),
            f"{result['workload']}.digests_equal": int(result["digests_equal"]),
        },
        "note": summary_row(result),
        "result": result,
    }


def _refuse_ledger_path(out: Path, repo: Path) -> None:
    ledger = (repo / LEDGER_DIR).resolve()
    target = out.resolve()
    if target == ledger or ledger in target.parents:
        raise AbError(f"--out {out}: a claim writes nothing under {LEDGER_DIR}/")


def run_host(
    repo: Path, parent: str, change: str, workload: str, pairs: int, seed: int,
    out: Optional[Path] = None, runner: Runner = run_e2e,
    log: Callable[[str], None] = lambda _line: None,
) -> Dict[str, Any]:
    """Check out ``parent`` and ``change`` of ``repo`` side by side, run
    the pairs, remove the checkouts; write ``out`` when given."""
    if out is not None:
        _refuse_ledger_path(out, repo)
    shas = {
        side: _git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
        for side, rev in (("parent", parent), ("change", change))
    }
    scratch = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    checkouts: Dict[str, Path] = {}
    try:
        for side in ("parent", "change"):
            path = scratch / side
            _git(repo, "worktree", "add", "--detach", "--quiet", str(path), shas[side])
            checkouts[side] = path
        result = run_pairs(checkouts, workload, pairs, seed, runner, log)
    finally:
        for path in checkouts.values():
            subprocess.run(
                ["git", "-C", str(repo), "worktree", "remove", "--force", str(path)],
                capture_output=True, check=False,
            )
        shutil.rmtree(scratch, ignore_errors=True)
    result["parent_sha"] = shas["parent"]
    result["change_sha"] = shas["change"]
    if out is not None:
        # the change commit's date, so the row is stamped without a clock read
        date = _git(repo, "show", "-s", "--format=%cs", shas["change"])
        payload = trend_payload(result, shas["parent"][:7], shas["change"][:7], date)
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.ab", description=__doc__.split("\n\n")[0]
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    host = sub.add_parser("host", help="interleaved host-cost pairs of two commits")
    host.add_argument("parent", help="the parent commit (any git revision)")
    host.add_argument("change", help="the change commit (any git revision)")
    host.add_argument("--workload", required=True, help="a bench_e2e cell name")
    host.add_argument("--pairs", type=int, required=True, help="parent/change pairs to run")
    host.add_argument("--seed", type=int, default=1, help="run.py --seed (default 1)")
    host.add_argument("--out", type=Path, default=None,
                      help="write a trend-appendable JSON here (not under benchmarks/e2e/)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
        result = run_host(
            repo, args.parent, args.change, args.workload, args.pairs, args.seed,
            args.out, log=lambda line: print(line, file=sys.stderr, flush=True),
        )
    except AbError as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 2
    print(summary_row(result))
    return 0 if result["digests_equal"] and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
