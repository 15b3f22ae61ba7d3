"""The observability event schema.

Every exported observation is one flat JSON object (one line of the JSONL
log), and the very dict :meth:`repro.sim.trace.Tracer.emit` builds:

* ``t``   — simulation time (float seconds);
* ``cat`` — event category (dot-separated, e.g. ``span.begin``);
* ``sub`` — the subject (a txid, oid, node tag ``n<id>``, or message tag);
* any further keys — category-specific details, all JSON scalars.

Categories (the span/series/audit model; see DESIGN.md "Observability"):

``span.begin``
    A transaction *attempt* started.  ``task`` is the stable logical id
    shared by every retry attempt (the retry chain); ``attempt`` numbers
    attempts within it; ``parent`` (present on nested children) links to
    the enclosing level's span; ``depth`` is the nesting depth.
``span.end``
    The attempt finished: ``outcome`` is ``commit`` or ``abort`` (with
    ``reason``, and ``oid`` when a specific object was at fault).
``span.phase``
    A phase edge inside an attempt: ``phase`` names it (``open``,
    ``queue``, ``commit``, ``acquire``, ``register``, ``validate``),
    ``edge`` is ``B`` (begin) or ``E`` (end).  Phases nest; an abort may
    leave phases open — the span fold (:mod:`repro.obs.spans`) closes
    them at the span's ``span.end``.
``sched.decision``
    One owner-side scheduler verdict for a conflicting retrieve request:
    ``action`` (``enqueue`` | ``abort`` | ``local_wait``), ``cause``
    (``enqueue`` | ``short_exec`` | ``high_cl`` | ``baseline`` | ``local``),
    plus the inputs that produced it (``cl``, ``threshold``, ``bk``,
    ``elapsed``, ``backoff``).
``rpc.issue`` / ``rpc.done``
    Proxy RPC lifecycle; ``rpc.done`` carries ``ok`` and ``retries``.
``rpc.batch``
    One piggyback-batch flush on the wire: ``src``, ``dst`` and ``size``
    (messages coalesced into the single simulated send).
``rpc.cache``
    One directory-lookup cache probe on the open path: ``node`` and
    ``hit`` (the cluster-level hit rate is this series reduced).
``payload.fetch``
    One payload-plane resolve at first actual read of a grant: ``node``,
    ``hit`` (resolved-bytes cache probe at the grant's version fence)
    and ``bytes`` (bulk bytes pulled on a miss; 0 on a hit).
``obs.queue``
    Gauge: per-object requester-queue length at its owner (``node``,
    ``len``) whenever it changes.
``traffic.arrival``
    One open-loop arrival at a node's admission queue: ``node`` and
    ``admitted`` (False = shed).
``traffic.dispatch``
    An admitted arrival left the admission queue and became a root
    transaction: ``sub`` is the task id the retry chain will carry,
    ``arrived`` the queue-entry time and ``waited`` the admission wait
    (``t - arrived``).  Links queueing delay to span chains for the
    latency-anatomy pass (:mod:`repro.prof.anatomy`).
``traffic.queue``
    Gauge: a node's admission-queue depth (``node``, ``len``) whenever
    it changes.
``fault.*``
    Fault-injection and recovery events (drops, duplicates, delays,
    crash/restart and partition windows, RPC retries, lease reclaims)
    — see :mod:`repro.faults`.

Validation here is deliberately hand-rolled (no jsonschema dependency):
:func:`validate_event` checks the base shape plus per-category required
keys, and is what the CI step runs over every exported line.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

__all__ = [
    "OBS_CATEGORIES",
    "SPAN_PHASES",
    "SchemaError",
    "validate_event",
    "validate_events",
]

#: phases a span.phase event may carry (order used by report tables)
SPAN_PHASES = ("open", "queue", "commit", "acquire", "register", "validate")

#: every category the obs layer emits or consumes; the cluster enables
#: these on the tracer when observability is on.
OBS_CATEGORIES = frozenset(
    {
        "span.begin",
        "span.end",
        "span.phase",
        "sched.decision",
        "rpc.issue",
        "rpc.done",
        "rpc.batch",
        "rpc.cache",
        "payload.fetch",
        "obs.queue",
        "traffic.arrival",
        "traffic.dispatch",
        "traffic.queue",
        "dstm.conflict",
        "dstm.grant",
        "dir.owner",
        "fault.reclaim",
        "fault.drop",
        "fault.dup",
        "fault.delay",
        "fault.crash",
        "fault.restart",
        "fault.partition",
        "fault.partition_end",
        "fault.rpc_retry",
    }
)

_SCALARS = (str, int, float, bool, type(None))

#: per-category required detail keys (beyond the base t/cat/sub shape)
_REQUIRED: Dict[str, frozenset] = {
    "span.begin": frozenset({"task", "node", "attempt", "profile", "depth"}),
    "span.end": frozenset({"task", "node", "outcome"}),
    "span.phase": frozenset({"phase", "edge"}),
    "sched.decision": frozenset({"node", "action", "cause"}),
    "rpc.issue": frozenset({"node", "dst"}),
    "rpc.done": frozenset({"node", "dst", "ok", "retries"}),
    "rpc.batch": frozenset({"size"}),
    "rpc.cache": frozenset({"node", "hit"}),
    "payload.fetch": frozenset({"node", "hit"}),
    "obs.queue": frozenset({"node", "len"}),
    "traffic.arrival": frozenset({"node", "admitted"}),
    "traffic.dispatch": frozenset({"node", "arrived", "waited"}),
    "traffic.queue": frozenset({"node", "len"}),
    "fault.drop": frozenset({"src", "dst"}),
}

_SPAN_OUTCOMES = frozenset({"commit", "abort"})
_PHASE_EDGES = frozenset({"B", "E"})
_DECISION_ACTIONS = frozenset({"enqueue", "abort", "local_wait"})


class SchemaError(ValueError):
    """An exported event violates the observability schema."""


def validate_event(event: Any) -> None:
    """Raise :class:`SchemaError` unless ``event`` is schema-conformant."""
    if not isinstance(event, dict):
        raise SchemaError(f"event must be an object, got {type(event).__name__}")
    for key, kinds in (("t", (int, float)), ("cat", str), ("sub", str)):
        if key not in event:
            raise SchemaError(f"missing required key {key!r}: {event}")
        if not isinstance(event[key], kinds) or isinstance(event[key], bool):
            if key != "t" or not isinstance(event[key], (int, float)):
                raise SchemaError(f"key {key!r} has wrong type in {event}")
    if event["t"] < 0:
        raise SchemaError(f"negative time in {event}")
    for key, value in event.items():
        if not isinstance(value, _SCALARS):
            raise SchemaError(f"non-scalar detail {key!r}={value!r} in {event}")
    cat = event["cat"]
    required = _REQUIRED.get(cat)
    if required:
        missing = required - event.keys()
        if missing:
            raise SchemaError(f"{cat}: missing {sorted(missing)} in {event}")
    if cat == "span.end" and event["outcome"] not in _SPAN_OUTCOMES:
        raise SchemaError(f"span.end outcome {event['outcome']!r} invalid")
    if cat == "span.phase":
        if event["edge"] not in _PHASE_EDGES:
            raise SchemaError(f"span.phase edge {event['edge']!r} invalid")
        if event["phase"] not in SPAN_PHASES:
            raise SchemaError(f"span.phase phase {event['phase']!r} invalid")
    if cat == "sched.decision" and event["action"] not in _DECISION_ACTIONS:
        raise SchemaError(f"sched.decision action {event['action']!r} invalid")


def validate_events(events: Iterable[Any]) -> int:
    """Validate a stream of events; returns how many passed."""
    count = 0
    last_t = 0.0
    for event in events:
        validate_event(event)
        if event["t"] < last_t:
            raise SchemaError(
                f"events out of time order: {event['t']} after {last_t}"
            )
        last_t = event["t"]
        count += 1
    return count
