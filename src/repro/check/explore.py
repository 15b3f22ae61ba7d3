"""``repro.check.explore`` — bounded systematic interleaving exploration.

The DES kernel is deterministic: same seed, same schedule.  That is what
makes this module possible — a :class:`~repro.sim.ScheduleController`
installed on the environment turns the kernel's two residual degrees of
freedom into *enumerable branches*:

* **tie-breaks** — when several pending events share the minimal
  ``(time, priority)``, the controller chooses which one runs first
  (the uncontrolled kernel always picks the lowest sequence number);
* **message-delay jitter** — an in-flight remote delivery may be
  deferred by a bounded delta, reordering it against later traffic (the
  simulated links draw independent random delays, so any such reorder
  is a schedule the real protocol must survive).

A depth-first, *stateless* search (re-run the whole deterministic
simulation per choice prefix, CHESS-style) enumerates those branches on
small configurations (2–4 nodes, 2–4 transactions, 1–3 objects, nesting
depth ≤ 2) and checks every terminal state:

* ``mc-serializable`` — the committed history must admit a serial order
  consistent with the version fences (:mod:`repro.check.oracle`);
* ``mc-lost-wakeup`` — every transaction the scheduler enqueued is
  eventually woken, retried, or aborted; no waiter survives quiescence;
* ``mc-bounded-enqueue`` — an enqueued requester never waits past its
  assigned backoff budget;
* ``mc-quiescence`` — the schedule runs dry only once every spawned
  transaction reached a terminal outcome (commit or exhausted retries);
* every ``inv-*`` sanitizer invariant, which runs inline
  (``CheckConfig(sanitize=True)``) during exploration.

**Pruning (DPOR-style).**  Exploring all tie orderings is exponential
and mostly redundant, so choices are pruned with the race detector's
independence relation (:mod:`repro.check.races` models happens-before
with per-node clocks joined only by messages): events attributed to
disjoint node sets commute, and same-node orderings are program order —
already fixed — unless one of the events is a *message arrival*, the
only same-node race the real system exhibits.  Deferrals are only
offered for remote deliveries whose destination has other pending work.
The explored/naive branch counts are reported so the reduction is
visible (``pruning ratio``).

On a violation the offending interleaving is dumped as a replayable
obs-style JSONL counterexample plus a one-line repro command::

    PYTHONPATH=src python -m repro.check.explore --nodes 2 --txns 2 --scheduler rts
    PYTHONPATH=src python -m repro.check.explore --replay ce.jsonl
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.check.oracle import CommitRecord, check_history
from repro.net.message import Message
from repro.sim.core import Entry, Environment, ScheduleController, SimulationError
from repro.sim.events import Condition, Event

__all__ = [
    "ExploreConfig",
    "ExploreReport",
    "RunOutcome",
    "explore",
    "run_interleaving",
    "dump_counterexample",
    "replay_counterexample",
    "seeded_bug",
    "SEEDED_BUGS",
    "main",
]

#: a controller decision: process ready[i], or defer ready[i] by delta
Choice = Union[int, Tuple[str, int, float]]
#: an enumerable alternative at a choice point, as recorded in traces
_Alt = Tuple[str, int, float]


@dataclass(frozen=True)
class ExploreConfig:
    """One exploration target: a small configuration plus search bounds."""

    nodes: int = 2
    txns: int = 2
    objects: int = 1
    #: nesting depth of the scripted transactions (1 = flat root ops,
    #: 2 = one closed-nested child per root)
    nesting: int = 1
    scheduler: str = "rts"
    seed: int = 0
    cl_threshold: int = 4
    #: per-transaction local work before the conflicting access — long
    #: enough to pass RTS's execution-time test so enqueues happen
    exec_time: float = 0.12
    #: start stagger between scripted transactions
    stagger: float = 0.005
    #: root retry budget before a transaction gives up
    max_attempts: int = 6
    #: search bounds
    max_runs: int = 4000
    #: choice points per run before the run stops branching (--depth)
    depth: int = 8000
    #: message-delay jitters per explored run
    jitter_budget: int = 2
    #: how far one jitter defers a remote delivery
    jitter_delta: float = 0.1
    #: kernel events per run (runaway guard)
    max_events: int = 300_000

    def __post_init__(self) -> None:
        if not (1 <= self.nodes):
            raise ValueError("nodes must be >= 1")
        if self.scheduler not in ("rts", "tfa", "tfa-backoff"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.nesting not in (1, 2):
            raise ValueError("nesting depth must be 1 or 2")


# ---------------------------------------------------------------------------
# Event attribution: the independence relation
# ---------------------------------------------------------------------------

_PROC_NODE = re.compile(r"^xtx\[(\d+)\]|^tx@(\d+)|^n(\d+)\.")


def _node_of_process(name: Optional[str]) -> Optional[int]:
    if not name:
        return None
    match = _PROC_NODE.match(name)
    if match is None:
        return None
    for group in match.groups():
        if group is not None:
            return int(group)
    return None


def _delivery_dst(entry: Entry) -> Optional[int]:
    """Destination node when ``entry`` is a remote message arrival: a call
    whose argument is a :class:`Message` between two nodes."""
    arg = entry[4]
    if entry[3] is not None and isinstance(arg, Message) and arg.dst != arg.src:
        return arg.dst
    return None


def _owner_node(fn: Any) -> Optional[int]:
    """The node a callback's named owner — a Process, a node's inbox
    server or RPC resend chain — runs at (``None``: unknown)."""
    name = getattr(getattr(fn, "__self__", None), "name", None)
    return _node_of_process(name) if isinstance(name, str) else None


def _entry_sites(entry: Entry) -> Optional[FrozenSet[int]]:
    """Nodes whose state processing ``entry`` can touch (None = unknown).

    Mirrors the race detector's happens-before model.  A call whose
    argument is a message (or a batch of them) is an arrival and
    executes at the destination(s); any other call runs at the node its
    function's owner names (an inbox service period, a retry window).
    An event entry is attributed by :func:`_sites_of`.  Unknown
    attribution means "assume dependent with everything" — sound, never
    unsound.
    """
    fn, arg = entry[3], entry[4]
    if fn is None:
        return _sites_of(arg)
    if isinstance(arg, Message):
        return frozenset((arg.dst,))
    if isinstance(arg, list) and arg and all(isinstance(m, Message) for m in arg):
        return frozenset(m.dst for m in arg)
    node = _owner_node(fn)
    return None if node is None else frozenset((node,))


def _sites_of(event: Event, depth: int = 0) -> Optional[FrozenSet[int]]:
    """The nodes an event belongs to: its only effect is running its
    callbacks, so it belongs to the nodes their owners name — the
    processes they resume, through any condition they feed (an empty
    callback list is a no-op event — the empty site set, independent of
    everything; a late waiter added by a reordered peer runs
    synchronously either way, see ``Environment.step``)."""
    if depth > 4:
        return None
    callbacks = event.callbacks
    if not callbacks:
        return frozenset()
    sites: set[int] = set()
    for callback in callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Condition):
            sub = _sites_of(owner, depth + 1)
            if sub is None:
                return None
            sites |= sub
            continue
        node = _owner_node(callback)
        if node is None:
            return None
        sites.add(node)
    return frozenset(sites)


def _dependent(
    sites_a: Optional[FrozenSet[int]],
    delivery_a: bool,
    sites_b: Optional[FrozenSet[int]],
    delivery_b: bool,
) -> bool:
    """Would swapping two same-time events change any observable state?

    Disjoint known sites commute (no happens-before edge can form
    between them).  Same-node events are program order — fixed — unless
    one is a message *arrival*, the only intra-node race the modelled
    system has (two in-flight deliveries, or a delivery against local
    processing, can land in either order in the real network).
    """
    if sites_a is None or sites_b is None:
        return True
    if not (sites_a & sites_b):
        return False
    return delivery_a or delivery_b


# ---------------------------------------------------------------------------
# The DFS controller
# ---------------------------------------------------------------------------


class _DfsController(ScheduleController):
    """Replays a choice prefix, then follows defaults, recording widths."""

    def __init__(self, cfg: ExploreConfig, prefix: Sequence[int]) -> None:
        self.cfg = cfg
        self.prefix = list(prefix)
        #: chosen alternative index per *branch point* (width > 1)
        self.taken: List[int] = []
        #: number of enabled alternatives per branch point
        self.widths: List[int] = []
        #: obs-style choice log for counterexample dumps
        self.log: List[Dict[str, Any]] = []
        self.jitters_used = 0
        self.truncated = False
        self.naive_branches = 0
        self.kept_branches = 0
        self.branch_points = 0

    def select(
        self,
        env: Environment,
        when: float,
        priority: int,
        ready: List[Entry],
        next_time: float,
    ) -> Choice:
        enabled = self._enabled(env, ready, next_time)
        if len(enabled) == 1:
            return self._apply(enabled[0])
        self.branch_points += 1
        depth = len(self.taken)
        if self.truncated or depth >= self.cfg.depth:
            self.truncated = True
            return self._apply(enabled[0])
        if depth < len(self.prefix):
            pick = self.prefix[depth]
            if pick >= len(enabled):
                raise SimulationError(
                    f"replay diverged: choice {pick} of {len(enabled)} "
                    f"at branch point {depth}"
                )
        else:
            pick = 0
        self.taken.append(pick)
        self.widths.append(len(enabled))
        self.log.append({
            "t": when,
            "depth": depth,
            "enabled": [f"{kind}:{idx}" for kind, idx, _ in enabled],
            "chosen": pick,
        })
        return self._apply(enabled[pick])

    def _apply(self, alt: _Alt) -> Choice:
        kind, index, delta = alt
        if kind == "defer":
            self.jitters_used += 1
            return ("defer", index, delta)
        return index

    def _enabled(
        self,
        env: Environment,
        ready: List[Entry],
        next_time: float,
    ) -> List[_Alt]:
        sites = [_entry_sites(entry) for entry in ready]
        deliveries = [_delivery_dst(entry) for entry in ready]

        enabled: List[_Alt] = [("run", 0, 0.0)]
        naive = len(ready)
        # Tie-break alternatives: run ready[i] before its seq-earlier
        # peers.  Pruned unless i is dependent with some earlier tie —
        # swapping independent events reaches no new state.
        for i in range(1, len(ready)):
            if any(
                _dependent(sites[i], deliveries[i] is not None,
                           sites[j], deliveries[j] is not None)
                for j in range(i)
            ):
                enabled.append(("run", i, 0.0))

        # Jitter alternatives: defer a remote delivery past upcoming
        # traffic.  Pruned when nothing pending can observe the reorder
        # (no other pending event touches the destination node).
        if self.jitters_used < self.cfg.jitter_budget and next_time != float("inf"):
            for i, dst in enumerate(deliveries):
                if dst is None:
                    continue
                naive += 1
                if self._heap_touches(env, dst):
                    enabled.append(("defer", i, self.cfg.jitter_delta))

        # Branch accounting counts *alternatives beyond the default
        # schedule*: at this point a naive explorer would fork into
        # naive - 1 extra schedules, we fork into len(enabled) - 1.
        if naive > 1:
            self.naive_branches += naive - 1
            self.kept_branches += len(enabled) - 1
        return enabled

    @staticmethod
    def _heap_touches(env: Environment, node: int) -> bool:
        for entry in env.pending_entries():
            sites = _entry_sites(entry)
            if sites is None or node in sites:
                return True
        return False


# ---------------------------------------------------------------------------
# The scripted workload
# ---------------------------------------------------------------------------


def _tx_body(k: int, oids: Sequence[str], cfg: ExploreConfig) -> Any:
    """Transaction ``k``'s body: read-compute-write with optional nesting."""
    primary = oids[k % len(oids)]
    secondary = oids[(k + 1) % len(oids)]

    def body(tx: Any) -> Generator[Any, Any, Any]:
        value = yield from tx.read(primary)
        yield from tx.compute(cfg.exec_time)
        if cfg.nesting >= 2:
            def child(ctx: Any) -> Generator[Any, Any, Any]:
                inner = yield from ctx.read(secondary)
                yield from ctx.write(secondary, ("n", k, inner))
                return inner

            yield from tx.nested(child)
        yield from tx.write(primary, ("t", k, value))
        return value

    return body


def _tx_driver(
    cluster: Any,
    cfg: ExploreConfig,
    k: int,
    oids: Sequence[str],
    outcomes: Dict[int, str],
) -> Generator[Any, Any, None]:
    from repro.dstm.errors import TransactionAborted

    node = k % cfg.nodes
    if k * cfg.stagger > 0.0:
        yield cluster.env.timeout(k * cfg.stagger)
    try:
        yield from cluster.atomic(
            _tx_body(k, oids, cfg), node=node,
            profile=f"xplore{k}", max_attempts=cfg.max_attempts,
        )
        outcomes[k] = "committed"
    except TransactionAborted:
        outcomes[k] = "gave_up"


# ---------------------------------------------------------------------------
# Seeded bugs (counterexample ergonomics tests + demos)
# ---------------------------------------------------------------------------


@contextmanager
def seeded_bug(name: Optional[str]) -> Iterator[None]:
    """Temporarily install a deliberately broken protocol patch.

    ``lost-wakeup`` breaks §III-B's no-lost-wakeup defence in one move:
    the owner's release drops the queued acquirer's hand-off (the
    wake-up is lost) and the requester waits on the hand-off alone,
    without the backoff-expiry re-request that normally insures against
    exactly this.  Any interleaving that enqueues an acquirer then hangs
    it — the explorer must flag ``mc-quiescence``/``mc-lost-wakeup``.
    """
    if name is None:
        yield
        return
    if name not in SEEDED_BUGS:
        raise ValueError(f"unknown seeded bug {name!r} (have: {sorted(SEEDED_BUGS)})")
    with SEEDED_BUGS[name]():
        yield


@contextmanager
def _bug_lost_wakeup() -> Iterator[None]:
    from repro.dstm.proxy import TMProxy
    from repro.dstm.transaction import Transaction

    original_release = TMProxy.release_object
    original_await = TMProxy._await_handoff

    def broken_release(self: Any, oid: str, committed: bool) -> None:
        obj = self.store.get(oid)
        if obj is None:
            return
        self._hold_started.pop(oid, None)
        self._holder_start.pop(oid, None)
        obj.release()
        queue = self.queues.get(oid)
        if queue is None or not len(queue):
            return
        for requester in queue.pop_copy_requesters():
            self._send_object(
                obj, requester.node, requester.txid, local_cl=0, transferred=False
            )
        queue.pop_next_acquirer()  # popped, never handed off: the lost wake-up

    def broken_await(
        self: Any, root: "Transaction", oid: str, backoff: float
    ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        key = (root.task_id, oid)
        waiter = self.env.event()
        self._waiters[key] = waiter
        payload = yield waiter  # no expiry race: the wake-up is the only path
        return payload

    TMProxy.release_object = broken_release  # type: ignore[method-assign]
    TMProxy._await_handoff = broken_await  # type: ignore[method-assign]
    try:
        yield
    finally:
        TMProxy.release_object = original_release  # type: ignore[method-assign]
        TMProxy._await_handoff = original_await  # type: ignore[method-assign]


SEEDED_BUGS = {"lost-wakeup": _bug_lost_wakeup}


# ---------------------------------------------------------------------------
# One interleaving, end to end
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """Terminal state of one explored interleaving."""

    choices: List[int]
    widths: List[int]
    violations: List[Dict[str, str]]
    outcomes: Dict[int, str]
    commits: List[Dict[str, Any]]
    log: List[Dict[str, Any]]
    truncated: bool
    events: int
    #: branch accounting for this run (choice points, naive vs kept)
    branch_points: int = 0
    naive_branches: int = 0
    kept_branches: int = 0


def run_interleaving(
    cfg: ExploreConfig,
    prefix: Sequence[int] = (),
    bug: Optional[str] = None,
) -> RunOutcome:
    """Run one full simulation under ``prefix``'s choices; check it."""
    with seeded_bug(bug):
        return _run_once(cfg, prefix)


def _run_once(cfg: ExploreConfig, prefix: Sequence[int]) -> RunOutcome:
    from repro.check.sanitize import InvariantViolation
    from repro.core import ClusterConfig, SchedulerKind
    from repro.core.cluster import Cluster
    from repro.core.config import CheckConfig
    from repro.dstm.transaction import Transaction
    from repro.scheduler.rts import RtsScheduler

    # Fresh txid counter per run: replayed counterexamples must carry
    # the same transaction names as the run that found them.
    Transaction._ids = itertools.count(1)

    cluster = Cluster(ClusterConfig(
        num_nodes=cfg.nodes,
        seed=cfg.seed,
        scheduler=SchedulerKind(cfg.scheduler),
        cl_threshold=cfg.cl_threshold,
        check=CheckConfig(sanitize=True),
    ))
    oids = [f"x{i}" for i in range(cfg.objects)]
    for i, oid in enumerate(oids):
        cluster.alloc(oid, 0, node=i % cfg.nodes)

    commits: List[Dict[str, Any]] = []
    enqueue_waits: List[Tuple[str, str, float, float, bool]] = []
    for engine in cluster.engines:
        engine.commit_observer = commits.append
    for proxy in cluster.proxies:
        proxy.enqueue_observer = (
            lambda txid, oid, budget, waited, won:
            enqueue_waits.append((txid, oid, budget, waited, won))
        )

    outcomes: Dict[int, str] = {}
    for k in range(cfg.txns):
        node = k % cfg.nodes
        cluster.spawn(
            _tx_driver(cluster, cfg, k, oids, outcomes),
            name=f"xtx[{node}][{k}]",
        )

    controller = _DfsController(cfg, prefix)
    cluster.env.controller = controller
    violations: List[Dict[str, str]] = []
    truncated = False
    try:
        cluster.env.run(max_events=cfg.max_events)
    except InvariantViolation as exc:
        violations.append({"rule": exc.rule_id, "detail": str(exc)})
    except SimulationError:
        truncated = True  # hit the per-run event bound, not a verdict

    if not violations and not truncated:
        # The baselines never enqueue: only RTS counts enqueue decisions.
        enqueue_decisions = sum(
            proxy.scheduler.enqueued for proxy in cluster.proxies
            if isinstance(proxy.scheduler, RtsScheduler)
        )
        violations.extend(_check_terminal(
            cfg, cluster, oids, outcomes, commits,
            enqueue_waits, enqueue_decisions,
        ))

    return RunOutcome(
        choices=controller.taken,
        widths=controller.widths,
        violations=violations,
        outcomes=outcomes,
        commits=commits,
        log=controller.log,
        truncated=truncated or controller.truncated,
        events=cluster.env.events_processed,
        branch_points=controller.branch_points,
        naive_branches=controller.naive_branches,
        kept_branches=controller.kept_branches,
    )


def _check_terminal(
    cfg: ExploreConfig,
    cluster: Any,
    oids: Sequence[str],
    outcomes: Dict[int, str],
    commits: List[Dict[str, Any]],
    enqueue_waits: List[Tuple[str, str, float, float, bool]],
    enqueue_decisions: int,
) -> List[Dict[str, str]]:
    violations: List[Dict[str, str]] = []

    if len(outcomes) != cfg.txns:
        stuck = sorted(set(range(cfg.txns)) - set(outcomes))
        violations.append({
            "rule": "mc-quiescence",
            "detail": f"schedule ran dry with transactions still live: {stuck}",
        })

    leftovers = sorted(
        f"n{proxy.node.node_id}:{txid}/{oid}"
        for proxy in cluster.proxies
        for (txid, oid) in proxy._waiters
    )
    if leftovers:
        violations.append({
            "rule": "mc-lost-wakeup",
            "detail": f"waiters survived quiescence: {leftovers}",
        })

    if enqueue_decisions > len(enqueue_waits) and len(outcomes) == cfg.txns:
        violations.append({
            "rule": "mc-lost-wakeup",
            "detail": (
                f"{enqueue_decisions} enqueue decisions but only "
                f"{len(enqueue_waits)} hand-off waits completed"
            ),
        })

    for txid, oid, budget, waited, _won in enqueue_waits:
        if waited > budget + 1e-6:
            violations.append({
                "rule": "mc-bounded-enqueue",
                "detail": (
                    f"{txid} waited {waited:.6f}s on {oid}, "
                    f"budget was {budget:.6f}s"
                ),
            })

    for violation in check_history(
        [CommitRecord.from_dict(record) for record in commits],
        initial={oid: 0 for oid in oids},
    ):
        violations.append({
            "rule": violation.rule,
            "detail": f"{violation.kind}: {violation.detail}",
        })
    return violations


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------


@dataclass
class ExploreReport:
    """What a bounded exploration covered and found."""

    config: ExploreConfig
    runs: int = 0
    #: True when the whole (pruned) choice tree was enumerated
    exhaustive: bool = False
    branch_points: int = 0
    #: schedule alternatives beyond the default, naive vs after pruning
    naive_branches: int = 0
    kept_branches: int = 0
    truncated_runs: int = 0
    events_total: int = 0
    counterexample: Optional[RunOutcome] = None
    bug: Optional[str] = None
    violations: List[Dict[str, str]] = field(default_factory=list)

    @property
    def pruned_branches(self) -> int:
        return self.naive_branches - self.kept_branches

    @property
    def pruning_ratio(self) -> float:
        """Naive alternative fan-out over what was kept (>1 = pruned)."""
        return self.naive_branches / max(self.kept_branches, 1)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "config": asdict(self.config),
            "runs": self.runs,
            "exhaustive": self.exhaustive,
            "branch_points": self.branch_points,
            "naive_branches": self.naive_branches,
            "kept_branches": self.kept_branches,
            "pruned_branches": self.pruned_branches,
            "pruning_ratio": round(self.pruning_ratio, 3),
            "truncated_runs": self.truncated_runs,
            "events_total": self.events_total,
            "violations": self.violations,
            "bug": self.bug,
        }
        if self.counterexample is not None:
            payload["counterexample_choices"] = self.counterexample.choices
        return payload


def explore(
    cfg: ExploreConfig,
    bug: Optional[str] = None,
    stop_on_violation: bool = True,
) -> ExploreReport:
    """Depth-first bounded exploration of ``cfg``'s interleaving tree."""
    report = ExploreReport(config=cfg, bug=bug)
    stack: List[Tuple[int, ...]] = [()]
    with seeded_bug(bug):
        while stack and report.runs < cfg.max_runs:
            prefix = stack.pop()
            outcome = _run_once(cfg, prefix)
            report.runs += 1
            report.branch_points += outcome.branch_points
            report.naive_branches += outcome.naive_branches
            report.kept_branches += outcome.kept_branches
            report.events_total += outcome.events
            if outcome.truncated:
                report.truncated_runs += 1
            if outcome.violations:
                report.violations = outcome.violations
                if report.counterexample is None:
                    report.counterexample = outcome
                if stop_on_violation:
                    break
            # Schedule every unexplored sibling below this run's prefix:
            # at branch depth d the run took outcome.choices[d] of
            # outcome.widths[d] alternatives; the others are new work.
            for depth in range(len(outcome.choices) - 1, len(prefix) - 1, -1):
                for alt in range(outcome.widths[depth] - 1, 0, -1):
                    stack.append(tuple(outcome.choices[:depth]) + (alt,))
        report.exhaustive = (
            not stack
            and report.truncated_runs == 0
            and report.counterexample is None
        )
    return report


# ---------------------------------------------------------------------------
# Counterexample dump / replay
# ---------------------------------------------------------------------------


def dump_counterexample(
    path: Union[str, Path],
    cfg: ExploreConfig,
    outcome: RunOutcome,
    bug: Optional[str] = None,
) -> str:
    """Write an obs-style JSONL counterexample; returns the repro command."""
    path = Path(path)
    repro_cmd = f"PYTHONPATH=src python -m repro.check.explore --replay {path}"
    lines: List[Dict[str, Any]] = [{
        "t": 0.0,
        "cat": "explore.meta",
        "config": asdict(cfg),
        "choices": outcome.choices,
        "bug": bug,
        "violations": outcome.violations,
        "repro": repro_cmd,
    }]
    lines.extend(
        {"cat": "explore.choice", **entry} for entry in outcome.log
    )
    for record in outcome.commits:
        lines.append({
            "t": record["serialized_at"],
            "cat": "explore.commit",
            "txid": record["txid"],
            "node": record["node"],
            "reads": [[o, v] for o, v, _ in record["reads"]],
            "writes": [[o, v] for o, v, _ in record["writes"]],
        })
    for violation in outcome.violations:
        lines.append({"t": None, "cat": "explore.violation", **violation})
    with path.open("w", encoding="utf-8") as sink:
        for line in lines:
            sink.write(json.dumps(line, default=repr) + "\n")
    return repro_cmd


def replay_counterexample(path: Union[str, Path]) -> RunOutcome:
    """Re-run a dumped counterexample's exact interleaving and re-check it.

    Raises :class:`OSError` for an unreadable file and :class:`ValueError`
    for one that is not a counterexample dump.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as source:
            meta = json.loads(source.readline())
        if meta.get("cat") != "explore.meta":
            raise ValueError("no explore.meta")
        cfg = ExploreConfig(**meta["config"])
        choices = tuple(meta["choices"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}:1: not a counterexample dump ({exc})") from exc
    return run_interleaving(cfg, choices, bug=meta.get("bug"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.explore",
        description="bounded systematic interleaving exploration "
                    "(model checking on small configurations)",
    )
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--txns", type=int, default=2)
    parser.add_argument("--objects", type=int, default=1)
    parser.add_argument("--nesting", type=int, default=1, choices=(1, 2))
    parser.add_argument("--scheduler", default="rts",
                        choices=("rts", "tfa", "tfa-backoff"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=8000,
                        help="choice points per run before branching stops")
    parser.add_argument("--max-runs", type=int, default=4000,
                        help="interleavings to explore at most")
    parser.add_argument("--jitter-budget", type=int, default=2)
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.add_argument("--ce-out", default="explore_ce.jsonl",
                        help="counterexample dump path (on violation)")
    parser.add_argument("--seed-bug", default=None, choices=sorted(SEEDED_BUGS),
                        help="inject a known-broken patch; exit 0 iff found")
    parser.add_argument("--replay", default=None, metavar="CE_JSONL",
                        help="replay a dumped counterexample and re-check it")
    args = parser.parse_args(argv)

    if args.replay is not None:
        try:
            outcome = replay_counterexample(args.replay)
        except (OSError, ValueError) as exc:
            # exit 2: bad input, not to be confused with 1 = not reproduced
            print(f"repro.check.explore: {exc}", file=sys.stderr)
            return 2
        for violation in outcome.violations:
            print(f"reproduced [{violation['rule']}] {violation['detail']}")
        if not outcome.violations:
            print("counterexample did NOT reproduce any violation")
            return 1
        return 0

    cfg = ExploreConfig(
        nodes=args.nodes, txns=args.txns, objects=args.objects,
        nesting=args.nesting, scheduler=args.scheduler, seed=args.seed,
        depth=args.depth, max_runs=args.max_runs,
        jitter_budget=args.jitter_budget,
    )
    report = explore(cfg, bug=args.seed_bug)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        coverage = "exhaustive" if report.exhaustive else "bounded"
        print(
            f"explored {report.runs} interleavings ({coverage}) of "
            f"{cfg.txns} txns / {cfg.nodes} nodes / {cfg.objects} objects "
            f"under {cfg.scheduler}"
        )
        print(
            f"branches: {report.kept_branches} kept, "
            f"{report.pruned_branches} pruned "
            f"(ratio {report.pruning_ratio:.1f}x vs naive)"
        )
        for violation in report.violations:
            print(f"VIOLATION [{violation['rule']}] {violation['detail']}")
        if not report.violations:
            print("no violations")

    if report.counterexample is not None:
        repro_cmd = dump_counterexample(
            args.ce_out, cfg, report.counterexample, bug=args.seed_bug
        )
        print(f"counterexample: {args.ce_out}")
        print(f"repro: {repro_cmd}")

    if args.seed_bug is not None:
        return 0 if report.counterexample is not None else 1
    return 1 if report.counterexample is not None else 0


if __name__ == "__main__":
    sys.exit(main())
