"""The rule registry — every machine-checked contract has one id here.

Three rule families, one namespace:

* ``det-*``  — **determinism lint rules** (:mod:`repro.check.lint`): AST
  patterns that silently break seeded bit-reproducibility.  The byte
  identity the equivalence pins (``tests/rpc/test_equivalence.py``) and
  the obs exporters assert is only as strong as the absence of these.
* ``inv-*``  — **runtime invariant rules** (:mod:`repro.check.sanitize`):
  protocol safety properties of the TFA/RTS stack, checked on every
  ownership transition when ``CheckConfig.sanitize`` is on.
* ``race-*`` — **trace-replay rules** (:mod:`repro.check.races`): offline
  happens-before checks over an exported obs JSONL trace.
* ``mc-*``   — **model-checked properties** (:mod:`repro.check.explore`):
  per-terminal-state checks the bounded systematic explorer evaluates on
  every enumerated interleaving of a small configuration.

Each rule names the protocol property it enforces and the paper section
that property comes from (Kim & Ravindran, IPDPS 2012 unless noted) —
DESIGN.md §3e renders this registry as the "Checked invariants" table,
and a test pins the two in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = [
    "Rule",
    "RULES",
    "LINT_RULES",
    "INVARIANT_RULES",
    "RACE_RULES",
    "EXPLORE_RULES",
    "rule",
]


@dataclass(frozen=True)
class Rule:
    """One checked contract."""

    #: stable kebab-case id (what suppressions and violations carry)
    id: str
    #: one-line statement of the contract
    summary: str
    #: the protocol property the rule protects
    property: str
    #: paper/reference section the property comes from
    paper: str


LINT_RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "det-wall-clock",
            "wall-clock reads (time.time, datetime.now, perf_counter)",
            "simulated time is the only clock; host time in sim state "
            "breaks same-seed byte identity",
            "§IV-A (simulated 1-50 ms links; DES substitution, DESIGN §1)",
        ),
        Rule(
            "det-unseeded-rng",
            "module-level random / numpy.random calls (unseeded global RNG)",
            "all randomness flows from RngRegistry's named seeded streams",
            "§IV (repeatable evaluation; DESIGN §3 'seeded streams')",
        ),
        Rule(
            "det-unordered-iter",
            "iteration over sets / os.listdir-style sources without sorted()",
            "event emission and message order must not depend on Python "
            "set/hash iteration order",
            "§II (deterministic replay of the CC protocol)",
        ),
        Rule(
            "det-id-order",
            "id()/hash() used where the value can order or key behaviour",
            "CPython object addresses and salted str hashes differ across "
            "processes; ordering by them diverges replays",
            "§II (deterministic replay)",
        ),
        Rule(
            "det-mutable-default",
            "mutable default argument (list/dict/set) on a function",
            "shared mutable defaults leak state between calls and across "
            "transactions/attempts",
            "§III (per-attempt transaction state)",
        ),
        Rule(
            "det-bare-allow",
            "a `# check: allow[...]` suppression without a justification",
            "every suppression must say why the construct is safe",
            "(tooling contract, this PR)",
        ),
    )
}

INVARIANT_RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "inv-single-writable-copy",
            "no two nodes hold non-FREE copies of one object at the same "
            "(gen, version)",
            "at any time there is exactly one writable copy; ownership "
            "changes are serialised through RETRIEVE grants and hand-offs",
            "§II (CC protocol property 2)",
        ),
        Rule(
            "inv-lease-expired",
            "a directory entry is only reclaimed after its owner's lease "
            "has lapsed and a committed snapshot exists",
            "lease non-overlap: the home never forks an object from under "
            "a live owner",
            "DESIGN §3b (failure model)",
        ),
        Rule(
            "inv-version-fence",
            "a home's registered (gen, version) never regresses: withdraw "
            "rolls back exactly the one provisional bump it matches, and a "
            "re-host may lower the version only while it raises gen",
            "commit-time global registration is monotone; stale copies and "
            "straggler commits are fenced, not resurrected",
            "§II ('global registration of object ownership')",
        ),
        Rule(
            "inv-durable",
            "a re-host restores at least the version the last commit installed",
            "durability: a re-host from an older snapshot loses a commit",
            "§II (the one writable copy survives) / DESIGN §3b",
        ),
        Rule(
            "inv-no-commit-after-owner-failure",
            "a transaction attempt aborted by OWNER_FAILURE (or any abort) "
            "never subsequently commits",
            "opaque commit order: an attempt has one outcome; recovery "
            "must not resurrect a dead commit",
            "DESIGN §3b (OWNER_FAILURE abort path)",
        ),
        Rule(
            "inv-cache-coherent",
            "the lookup cache's internal maps stay consistent; fenced "
            "entries stay dead",
            "location metadata may be stale but never self-contradictory",
            "DESIGN §3d (version-fenced lookup caching)",
        ),
        Rule(
            "inv-payload-fence",
            "a payload fetch is served only from bytes at exactly the "
            "requested version fence, never past the home's watermark",
            "payload/control split safety: lazily resolved bytes must "
            "match the version the control plane granted — serving any "
            "other fence would smuggle stale or unregistered state",
            "DESIGN §3i (payload plane; ProxyStore-style proxies)",
        ),
    )
}

RACE_RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "race-unordered-write",
            "two ownership acquisitions of one object at the same version "
            "are concurrent (not happens-before ordered)",
            "conflicting writers must be ordered by the commit protocol's "
            "migration chain — concurrency here means two writable copies",
            "§II (one writable copy; opacity)",
        ),
        Rule(
            "race-version-regression",
            "an acquisition happens-before a later acquisition with a "
            "strictly smaller version (strict mode)",
            "version order must embed into the happens-before order along "
            "the ownership chain",
            "§II (monotone version fences)",
        ),
    )
}

EXPLORE_RULES: Dict[str, Rule] = {
    r.id: r
    for r in (
        Rule(
            "mc-serializable",
            "every explored terminal state's committed history admits a "
            "serial order consistent with the version fences",
            "multiversion serializability: unique fence writers, coherent "
            "read values, an acyclic precedence graph, and serialization "
            "instants that embed into it",
            "§II (TFA opacity/atomicity via global registration)",
        ),
        Rule(
            "mc-lost-wakeup",
            "every transaction the scheduler enqueued is eventually woken "
            "by a hand-off, retried, or aborted — no waiter survives "
            "quiescence",
            "liveness of the enqueue path: the paper's scheduling_List "
            "hand-off (plus the backoff-expiry re-request insurance) must "
            "reach every parked requester under every interleaving",
            "§III-B (Algorithms 2-4: enqueue / hand-off / re-request)",
        ),
        Rule(
            "mc-bounded-enqueue",
            "an enqueued requester never waits past the backoff budget the "
            "scheduler assigned it",
            "RTS's bounded-enqueue-time guarantee: the wait either wins "
            "the hand-off or expires within the granted backoff",
            "§III-B (backoff assignment; Theorem 1's waiting-time bound)",
        ),
        Rule(
            "mc-quiescence",
            "the schedule runs dry only after every spawned transaction "
            "reached a terminal outcome (committed or gave up)",
            "whole-system progress: no interleaving may strand a live "
            "transaction with no pending event to drive it",
            "§III (liveness of the scheduled retry loop)",
        ),
    )
}

#: every rule, one namespace — ids are globally unique
RULES: Dict[str, Rule] = {
    **LINT_RULES, **INVARIANT_RULES, **RACE_RULES, **EXPLORE_RULES,
}


def rule(rule_id: str) -> Rule:
    """Look up a rule by id (KeyError on unknown ids — ids are a contract)."""
    return RULES[rule_id]


def known_ids() -> Iterable[str]:
    return RULES.keys()
