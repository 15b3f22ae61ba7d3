"""Serializability oracle over a committed history (``mc-serializable``).

The sanitizer (:mod:`repro.check.sanitize`, on under
``CheckConfig(sanitize=True)``) keeps the committed history: one
:class:`CommitRecord` per committed root transaction, built by
:func:`commit_record` — the version anchors the commit validated (its
read set) and the versions it installed (its write set).  This module
decides, offline and purely combinatorially, whether that history
admits a serial order consistent with the version fences:

* **unique fences** — exactly one committed writer installs each
  ``(oid, version)``; two writers on one fence means two commits won the
  same validation window (the write-skew TFA's registration step closes);
* **value coherence** — every read of ``(oid, v)`` observed the value the
  unique writer of ``v`` installed (or the initial value for ``v = 0``);
* **acyclic precedence** — the classic multiversion serialization graph
  (write→read, write→write along the version chain, and read→next-write
  anti-dependencies) must be acyclic;
* **fence order** — commit serialization instants (``serialized_at``)
  must embed into that precedence order: the version chain is the serial
  order TFA claims, so a precedence edge pointing backwards in
  serialization time is a violation even without a full cycle.

The oracle is deliberately engine-agnostic: it sees only the records, so
every scheduler is checked by the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dstm.transaction import Transaction

__all__ = [
    "CommitRecord", "OracleViolation", "check_history", "commit_record",
    "INITIAL_WRITER",
]

#: pseudo-transaction that "wrote" every object's version-0 initial value
INITIAL_WRITER = "<initial>"


@dataclass(frozen=True)
class CommitRecord:
    """One committed root transaction's footprint."""

    txid: str
    node: int
    serialized_at: float
    #: (oid, version anchor, value observed) per read, sorted by oid
    reads: Tuple[Tuple[str, int, Any], ...]
    #: (oid, version installed, value installed) per write, sorted by oid
    writes: Tuple[Tuple[str, int, Any], ...]

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "CommitRecord":
        """Build from a plain mapping with the same keys (a record read
        back from JSON, say)."""
        return cls(
            txid=str(record["txid"]),
            node=int(record["node"]),
            serialized_at=float(record["serialized_at"]),
            reads=tuple((str(o), int(v), val) for o, v, val in record["reads"]),
            writes=tuple((str(o), int(v), val) for o, v, val in record["writes"]),
        )


def commit_record(
    root: "Transaction", new_versions: Mapping[str, int], node: int
) -> CommitRecord:
    """The committed ``root``'s footprint, read off the transaction alone
    (never a store: the commit's hand-off may already have migrated the
    written objects away).  ``reads`` are the version anchors the commit
    validated (nested levels folded in by ``merge_into_parent``),
    ``writes`` the versions ``new_versions`` says it installed; both
    sorted by oid, so the record is deterministic."""
    rset, wset = root.rset, root.wset
    assert root.serialized_at is not None, "a committed root is serialized"
    return CommitRecord(
        txid=root.txid,
        node=node,
        serialized_at=root.serialized_at,
        reads=tuple((oid, rset[oid].version, rset[oid].value) for oid in sorted(rset)),
        writes=tuple((oid, new_versions[oid], wset[oid]) for oid in sorted(new_versions)),
    )


@dataclass(frozen=True)
class OracleViolation:
    """One way the committed history fails to serialize."""

    #: always ``mc-serializable`` today (the rule registry id)
    rule: str
    #: machine-readable failure shape: ``duplicate-fence``,
    #: ``phantom-version``, ``stale-read-value``, ``fence-order`` or
    #: ``precedence-cycle``
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}/{self.kind}] {self.detail}"


def check_history(
    records: Sequence[CommitRecord],
    initial: Optional[Mapping[str, Any]] = None,
) -> List[OracleViolation]:
    """Check a committed history; returns all violations found ([] = ok).

    ``initial`` maps oid -> bootstrap value (the version-0 state); reads
    at version 0 are only value-checked when it is provided.
    """
    violations: List[OracleViolation] = []

    # -- unique fences + the per-object version chain -------------------------
    writer_of: Dict[Tuple[str, int], CommitRecord] = {}
    written_value: Dict[Tuple[str, int], Any] = {}
    for rec in records:
        for oid, version, value in rec.writes:
            fence = (oid, version)
            prev = writer_of.get(fence)
            if prev is not None:
                violations.append(OracleViolation(
                    "mc-serializable", "duplicate-fence",
                    f"{oid} v{version} installed by both {prev.txid} "
                    f"and {rec.txid}",
                ))
                continue
            writer_of[fence] = rec
            written_value[fence] = value

    versions_of: Dict[str, List[int]] = {}
    for oid, version in writer_of:
        versions_of.setdefault(oid, []).append(version)
    for oid in sorted(versions_of):
        chain = sorted(versions_of[oid])
        expected = list(range(1, len(chain) + 1))
        if chain != expected:
            violations.append(OracleViolation(
                "mc-serializable", "phantom-version",
                f"{oid} committed versions {chain} are not the "
                f"contiguous chain {expected}",
            ))

    # -- value coherence ------------------------------------------------------
    for rec in records:
        for oid, version, value in rec.reads:
            if version == 0:
                if initial is not None and oid in initial and value != initial[oid]:
                    violations.append(OracleViolation(
                        "mc-serializable", "stale-read-value",
                        f"{rec.txid} read {oid} v0 = {value!r}, "
                        f"initial value is {initial[oid]!r}",
                    ))
                continue
            fence = (oid, version)
            if fence not in writer_of:
                violations.append(OracleViolation(
                    "mc-serializable", "phantom-version",
                    f"{rec.txid} read {oid} v{version}, which no "
                    f"committed transaction installed",
                ))
            elif value != written_value[fence]:
                violations.append(OracleViolation(
                    "mc-serializable", "stale-read-value",
                    f"{rec.txid} read {oid} v{version} = {value!r}, "
                    f"writer {writer_of[fence].txid} installed "
                    f"{written_value[fence]!r}",
                ))

    # -- precedence graph -----------------------------------------------------
    # Nodes are txids (plus the pseudo initial writer); edges are the
    # multiversion serialization dependencies.  Built in record order so
    # the graph — and any reported cycle — is deterministic.
    serialized_at: Dict[str, float] = {rec.txid: rec.serialized_at for rec in records}
    edges: Dict[str, List[str]] = {INITIAL_WRITER: []}
    for rec in records:
        edges.setdefault(rec.txid, [])

    def add_edge(src: str, dst: str, why: str) -> None:
        if src == dst or dst in edges[src]:
            return
        edges[src].append(dst)
        s, d = serialized_at.get(src), serialized_at.get(dst)
        if s is not None and d is not None and s > d:
            violations.append(OracleViolation(
                "mc-serializable", "fence-order",
                f"{why}: {src} (serialized {s:.6f}) must precede "
                f"{dst} (serialized {d:.6f})",
            ))

    def writer_txid(oid: str, version: int) -> Optional[str]:
        if version == 0:
            return INITIAL_WRITER
        rec = writer_of.get((oid, version))
        return rec.txid if rec is not None else None

    for rec in records:
        for oid, version, _value in rec.reads:
            src = writer_txid(oid, version)
            if src is not None and src != rec.txid:
                add_edge(src, rec.txid, f"write->read on {oid} v{version}")
            nxt = writer_of.get((oid, version + 1))
            if nxt is not None and nxt.txid != rec.txid:
                add_edge(rec.txid, nxt.txid,
                         f"read->next-write on {oid} v{version}")
        for oid, version, _value in rec.writes:
            src = writer_txid(oid, version - 1)
            if src is not None and src != rec.txid:
                add_edge(src, rec.txid, f"write->write on {oid} v{version - 1}")

    cycle = _find_cycle(edges)
    if cycle is not None:
        violations.append(OracleViolation(
            "mc-serializable", "precedence-cycle",
            "no serial order exists: " + " -> ".join(cycle),
        ))
    return violations


def _find_cycle(edges: Mapping[str, Sequence[str]]) -> Optional[List[str]]:
    """First cycle in deterministic DFS order, as a closed node path."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {node: WHITE for node in edges}
    path: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        color[node] = GREY
        path.append(node)
        for succ in edges.get(node, ()):
            if color.get(succ, WHITE) == GREY:
                start = path.index(succ)
                return path[start:] + [succ]
            if color.get(succ, WHITE) == WHITE:
                found = visit(succ)
                if found is not None:
                    return found
        path.pop()
        color[node] = BLACK
        return None

    for node in edges:
        if color[node] == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None
