"""The trace-replay race detector — ``python -m repro.check.races run.jsonl``.

An offline opacity check over any obs JSONL export (``--trace-out`` from
the bench drivers, or :class:`repro.obs.sink.JsonlSink` directly), read
and schema-checked by :func:`repro.obs.report.load_events`.  It
rebuilds a happens-before order from the trace with per-node vector
clocks and then asks whether every pair of conflicting ownership
acquisitions is ordered by the commit protocol's migration chain:

* each event ticks its node's clock;
* ``dstm.grant`` (emitted at the requester when an object instals) joins
  the requester's clock with the serving node's — the object migration
  edge;
* ``rpc.done`` with ``ok`` joins the caller's clock with the callee's —
  the reply edge;
* ``dir.owner`` (emitted at the home when the registered owner changes)
  joins the home's clock with the new owner's — the registration edge.

The join edges use the *latest* clock of the peer at the trace point, so
the reconstructed order over-approximates true happens-before.  That
makes reports **sound**: a pair concurrent under the over-approximation
is concurrent under any refinement — two writable copies of one object
version were genuinely live at once (``race-unordered-write``).  Some
true races may be missed; none are invented.

``--strict`` adds ``race-version-regression``: an acquisition that
happens-before a later acquisition of the same object at a *smaller*
version.  Under partitions the protocol legitimately fences such
stragglers (they abort at validation), so this is a diagnostic lens, not
a default failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.check.rules import RACE_RULES
from repro.obs.events import SchemaError
from repro.obs.report import load_events

__all__ = ["Access", "Race", "detect_races", "replay", "main"]

_TASK_NODE_RE = re.compile(r"^task-n(\d+)-")

Clock = Dict[int, int]


def _join(a: Clock, b: Clock) -> None:
    """a |= b (elementwise max), in place."""
    for node, tick in b.items():
        if tick > a.get(node, 0):
            a[node] = tick


def _leq(a: Clock, b: Clock) -> bool:
    return all(tick <= b.get(node, 0) for node, tick in a.items())


def _concurrent(a: Clock, b: Clock) -> bool:
    return not _leq(a, b) and not _leq(b, a)


def _node_of(event: Dict[str, Any]) -> Optional[int]:
    """The node an event happened at, or None if unattributable."""
    node = event.get("node")
    if isinstance(node, str) and node.startswith("n"):
        return int(node[1:])
    if isinstance(node, int):
        return node
    if event.get("cat") == "dstm.grant":
        # Grants are emitted at the requester but carry no node field;
        # the root task id encodes its home node (task-n<id>-<seq>).
        m = _TASK_NODE_RE.match(str(event.get("txid", "")))
        if m:
            return int(m.group(1))
    return None


@dataclass(frozen=True)
class Access:
    """One ownership acquisition (an ACQUIRE-mode grant) seen in the trace."""

    oid: str
    version: int
    node: int
    time: float
    task: str
    clock: Tuple[Tuple[int, int], ...]  # frozen vector-clock snapshot

    def _clock_dict(self) -> Clock:
        return dict(self.clock)


@dataclass(frozen=True)
class Race:
    """A pair of conflicting accesses the protocol failed to order."""

    rule: str
    oid: str
    first: Access
    second: Access

    def render(self) -> str:
        a, b = self.first, self.second
        return (
            f"{self.rule}: {self.oid} "
            f"v{a.version}@n{a.node} t={a.time:.6f} ({a.task}) "
            f"{'||' if self.rule == 'race-unordered-write' else '->'} "
            f"v{b.version}@n{b.node} t={b.time:.6f} ({b.task})"
        )


@dataclass
class Replay:
    """The happens-before reconstruction of one trace."""

    events: int = 0
    attributed: int = 0
    edges: int = 0
    accesses: List[Access] = field(default_factory=list)


def replay(events: Iterable[Dict[str, Any]]) -> Replay:
    """Run the vector-clock reconstruction over a parsed event stream."""
    out = Replay()
    clocks: Dict[int, Clock] = {}
    for event in events:
        out.events += 1
        node = _node_of(event)
        if node is None:
            continue
        out.attributed += 1
        vc = clocks.setdefault(node, {})
        vc[node] = vc.get(node, 0) + 1
        cat = event.get("cat")
        peer: Optional[int] = None
        if cat == "dstm.grant":
            peer = event.get("served_by")
        elif cat == "rpc.done" and event.get("ok"):
            peer = event.get("dst")
        elif cat == "dir.owner":
            owner = event.get("owner")
            # A reclaim registers the home itself as owner; there is no
            # message edge from anyone in that case.
            peer = owner if owner != node else None
        if isinstance(peer, int) and peer != node and peer in clocks:
            _join(vc, clocks[peer])
            out.edges += 1
        if cat == "dstm.grant" and event.get("mode") == "a":
            out.accesses.append(
                Access(
                    oid=str(event.get("sub")),
                    version=int(event.get("version", -1)),
                    node=node,
                    time=float(event.get("t", 0.0)),
                    task=str(event.get("txid", "?")),
                    clock=tuple(sorted(vc.items())),
                )
            )
    return out


def detect_races(events: Iterable[Dict[str, Any]],
                 strict: bool = False) -> Tuple[Replay, List[Race]]:
    """Replay the trace and report unordered conflicting acquisitions."""
    out = replay(events)
    races: List[Race] = []
    by_oid: Dict[str, List[Access]] = {}
    for access in out.accesses:
        by_oid.setdefault(access.oid, []).append(access)
    for oid in sorted(by_oid):
        accesses = by_oid[oid]  # already in trace (time) order
        for i, a in enumerate(accesses):
            a_clock = a._clock_dict()
            for b in accesses[i + 1:]:
                b_clock = b._clock_dict()
                if a.version == b.version and _concurrent(a_clock, b_clock):
                    # Two writable copies of one version were live at
                    # once: the migration chain never ordered them.
                    races.append(Race("race-unordered-write", oid, a, b))
                elif (
                    strict
                    and b.version < a.version
                    and _leq(a_clock, b_clock)
                ):
                    # The chain ordered them, but version order ran
                    # backwards along it (strict-mode diagnostic).
                    races.append(Race("race-version-regression", oid, a, b))
    return out, races


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.races", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("trace", help="obs JSONL export to check")
    parser.add_argument("--strict", action="store_true",
                        help="also report race-version-regression")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--max-report", type=int, default=20,
                        help="cap the printed races (all still counted)")
    args = parser.parse_args(argv)

    try:
        out, races = detect_races(load_events(args.trace), strict=args.strict)
    except (OSError, SchemaError) as exc:
        # exit 2: bad input, not to be confused with 1 = races found
        print(f"repro.check.races: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(
            {
                "trace": args.trace,
                "events": out.events,
                "attributed": out.attributed,
                "hb_edges": out.edges,
                "acquisitions": len(out.accesses),
                "races": [
                    {"rule": r.rule, "oid": r.oid,
                     "first": {"node": r.first.node, "version": r.first.version,
                               "t": r.first.time, "task": r.first.task},
                     "second": {"node": r.second.node, "version": r.second.version,
                                "t": r.second.time, "task": r.second.task}}
                    for r in races
                ],
                "ok": not races,
            },
            indent=2,
        ))
    else:
        for race in races[: args.max_report]:
            print(race.render())
        if len(races) > args.max_report:
            print(f"... and {len(races) - args.max_report} more")
        print(
            f"repro.check.races: {out.events} events, {out.attributed} "
            f"attributed, {out.edges} hb edges, {len(out.accesses)} "
            f"acquisitions, {len(races)} race(s)"
        )
        for rule_id in sorted({r.rule for r in races}):
            print(f"  {rule_id}: {RACE_RULES[rule_id].summary}")
    return 1 if races else 0


if __name__ == "__main__":
    sys.exit(main())
