"""The runtime invariant sanitizer — ``CheckConfig.sanitize=True``.

A cluster-scoped observer the protocol layers call at every ownership
transition: directory registration/withdraw, lease reclaim, object
grant/install, commit finalisation, and lookup-cache mutation.  Each
hook re-checks one of the paper's safety properties
(``inv-*`` in :mod:`repro.check.rules`) against live state and raises a
structured :class:`InvariantViolation` the moment a transition breaks it —
so a protocol bug surfaces at the transition that caused it, not as a
serializability failure thousands of events later.

It is also the one observer of what committed: :attr:`Sanitizer.history`
holds a :class:`~repro.check.oracle.CommitRecord` per committed root (a
re-host writes nothing), in commit order, for
:func:`repro.check.oracle.check_history`; and
:attr:`Sanitizer.enqueue_waits` holds every completed hand-off wait (the
explorer's bounded-enqueue and lost-wakeup properties read it).

The integration contract (same zero-cost pattern as obs tracing):

* every hook site is guarded by ``if self.sanitizer is not None:`` — with
  sanitize off nothing is constructed and the hot path pays one attribute
  read;
* the sanitizer is **read-only**: it never mutates sim state, draws
  randomness, or sends messages, so a sanitized run commits/aborts the
  exact same timeline as an unsanitized one (the equivalence pin in
  ``tests/check/test_sanitizer.py`` holds this).

Enable per-run via ``ClusterConfig(check=CheckConfig(sanitize=True))`` or
suite-wide via ``REPRO_SANITIZE=1`` (how CI runs the full pytest suite a
second time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.check.oracle import CommitRecord, commit_record
from repro.check.rules import INVARIANT_RULES
from repro.dstm.objects import ObjectState, home_node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dstm.proxy import TMProxy
    from repro.dstm.transaction import Transaction
    from repro.rpc.cache import LookupCache

__all__ = ["InvariantViolation", "Sanitizer"]


class InvariantViolation(AssertionError):
    """A protocol safety property failed at a specific transition.

    Subclasses :class:`AssertionError` so test harnesses treat it as a
    hard failure, but carries structured context: the rule id (see
    :data:`repro.check.rules.INVARIANT_RULES`), the subject (usually an
    oid or txid), the node that tripped the check, the simulated time,
    and the transition's key/value details.
    """

    def __init__(
        self,
        rule_id: str,
        subject: str,
        node: Optional[int] = None,
        time: Optional[float] = None,
        **context: Any,
    ) -> None:
        self.rule_id = rule_id
        self.subject = subject
        self.node = node
        self.time = time
        self.context: Dict[str, Any] = context
        rule = INVARIANT_RULES[rule_id]
        where = "" if node is None else f" at n{node}"
        when = "" if time is None else f" t={time:.6f}"
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        super().__init__(
            f"[{rule_id}] {rule.summary} — violated by {subject}{where}{when}"
            + (f" ({detail})" if detail else "")
        )


class Sanitizer:
    """Live safety checks over one cluster's protocol state.

    One instance per cluster, shared by every node's directory shard,
    proxy, TFA engine, and lookup cache.  All methods are O(small) per
    transition except :meth:`check_single_writable_copy`, which scans the
    per-node stores for one oid (O(nodes)).
    """

    def __init__(self) -> None:
        #: node_id -> TMProxy, for cluster-wide copy scans
        self.proxies: Dict[int, "TMProxy"] = {}
        #: (home node_id, oid) -> highest (gen, version) registered there
        self._watermarks: Dict[Tuple[int, str], Tuple[int, int]] = {}
        #: root-attempt txids that aborted (any reason, incl. OWNER_FAILURE)
        self._dead_txids: Dict[str, str] = {}
        #: oid -> the version its last committed write installed
        self._committed: Dict[str, int] = {}
        #: the committed history: one record per committed root, in the
        #: order they committed
        self.history: List[CommitRecord] = []
        #: every completed hand-off wait: (root txid, oid, backoff budget,
        #: time waited, whether the hand-off won the race)
        self.enqueue_waits: List[Tuple[str, str, float, float, bool]] = []
        #: total individual checks performed (test observability)
        self.checks = 0

    def attach_proxy(self, node_id: int, proxy: "TMProxy") -> None:
        self.proxies[node_id] = proxy

    # -- inv-single-writable-copy ------------------------------------------

    def check_single_writable_copy(
        self, oid: str, node: Optional[int] = None, now: Optional[float] = None
    ) -> None:
        """No two nodes hold non-FREE copies of ``oid`` at one ``(gen,
        version)``.  Distinct ones may coexist non-FREE transiently (a
        fenced straggler validating a copy the registry has moved past
        will abort); two live copies *at the same one* mean the
        single-writable-copy property itself forked."""
        self.checks += 1
        holders: Dict[Tuple[int, int], Tuple[int, str]] = {}
        for node_id in sorted(self.proxies):
            obj = self.proxies[node_id].store.get(oid)
            if obj is None or obj.state is ObjectState.FREE:
                continue
            fence = (obj.gen, obj.version)
            other = holders.get(fence)
            if other is not None and other[0] != node_id:
                raise InvariantViolation(
                    "inv-single-writable-copy", oid, node=node, time=now,
                    gen=obj.gen, version=obj.version, holders=[other[0], node_id],
                    holder_txids=[other[1], obj.holder],
                )
            holders[fence] = (node_id, obj.holder)

    # -- inv-version-fence --------------------------------------------------

    def note_register(
        self,
        node_id: int,
        oid: str,
        version: Optional[int],
        now: Optional[float] = None,
        gen: int = 0,
    ) -> None:
        """A home registered ``oid`` at ``(gen, version)`` (None = unchanged)."""
        self.checks += 1
        if version is None:
            return
        key = (node_id, oid)
        mark = self._watermarks.get(key)
        if mark is not None and (gen, version) < mark:
            raise InvariantViolation(
                "inv-version-fence", oid, node=node_id, time=now,
                registered=(gen, version), watermark=mark,
            )
        self._watermarks[key] = (gen, version)

    def note_withdraw(
        self,
        node_id: int,
        oid: str,
        old_version: int,
        new_version: int,
        txid: Optional[str],
        now: Optional[float] = None,
    ) -> None:
        """A withdraw rolled the registry back: exactly one step, in its gen."""
        self.checks += 1
        if new_version != old_version - 1:
            raise InvariantViolation(
                "inv-version-fence", oid, node=node_id, time=now,
                withdraw=True, old_version=old_version,
                new_version=new_version, txid=txid,
            )
        key = (node_id, oid)
        self._watermarks[key] = (self._watermarks.get(key, (0, 0))[0], new_version)

    # -- inv-lease-expired --------------------------------------------------

    def note_reclaim(
        self,
        node_id: int,
        oid: str,
        now: float,
        lease_expires_at: float,
        has_snapshot: bool,
    ) -> None:
        """The home is about to reclaim ``oid`` from a silent owner (the
        re-host that follows is :meth:`note_rehost`'s)."""
        self.checks += 1
        if now < lease_expires_at or not has_snapshot:
            raise InvariantViolation(
                "inv-lease-expired", oid, node=node_id, time=now,
                lease_expires_at=lease_expires_at, has_snapshot=has_snapshot,
            )

    def note_rehost(self, node_id: int, oid: str, gen: int, version: int,
                    now: Optional[float] = None) -> None:
        """A home re-hosts ``oid`` (a lease reclaim) at the ``version`` it
        restores under the new generation ``gen``: the watermark restarts
        there.  A re-host writes nothing, and loses nothing: ``version``
        is at least the last one a commit installed (``inv-durable``)."""
        self.checks += 1
        if version < self._committed.get(oid, version):
            raise InvariantViolation(
                "inv-durable", oid, node=node_id, time=now,
                restored=version, committed=self._committed[oid], gen=gen,
            )
        self._watermarks[(node_id, oid)] = (gen, version)

    # -- inv-no-commit-after-owner-failure ----------------------------------

    def note_abort(
        self, txid: str, reason: str, now: Optional[float] = None
    ) -> None:
        """A root attempt aborted; its txid must never commit."""
        self.checks += 1
        self._dead_txids[txid] = reason

    def note_commit(
        self,
        root: "Transaction",
        new_versions: Mapping[str, int],
        node: int,
        now: Optional[float] = None,
    ) -> None:
        """Root ``root`` committed at ``node``, installing ``new_versions``:
        it must not be an attempt that aborted; it joins the history."""
        self.checks += 1
        reason = self._dead_txids.get(root.txid)
        if reason is not None:
            raise InvariantViolation(
                "inv-no-commit-after-owner-failure", root.txid, node=node,
                time=now, abort_reason=reason,
            )
        self.history.append(commit_record(root, new_versions, node))
        self._committed.update(new_versions)

    # -- what the explorer reads ----------------------------------------------

    def note_enqueue_wait(
        self, txid: str, oid: str, budget: float, waited: float, won: bool
    ) -> None:
        """Root ``txid``'s wait for ``oid``'s hand-off ended after
        ``waited`` of its ``budget``; ``won`` = the hand-off came first."""
        self.enqueue_waits.append((txid, oid, budget, waited, won))

    # -- inv-cache-coherent --------------------------------------------------

    def check_cache(
        self, cache: "LookupCache", node: Optional[int] = None
    ) -> None:
        """The lookup cache's internal maps stay mutually consistent."""
        self.checks += 1
        owners = cache._owners
        versions = cache._versions
        orphaned = [oid for oid in versions if oid not in owners]
        if orphaned:
            raise InvariantViolation(
                "inv-cache-coherent", "lookup-cache", node=node,
                orphaned_versions=sorted(orphaned),
            )

    # -- inv-payload-fence ---------------------------------------------------

    def check_payload_serve(
        self, oid: str, version: int, node: int, now: Optional[float] = None
    ) -> None:
        """A node is about to serve payload bytes for ``(oid, version)``.

        Two conditions, both sound against the register-then-install
        commit window (registration precedes the committer's byte
        materialisation, so the watermark is always at or ahead of any
        servable fence):

        * the serving node's resolved-bytes cache must hold ``oid`` at
          exactly the requested fence — serving from any other fence
          would hand out stale (or fabricated) bytes;
        * the fence must not exceed the home's registered watermark — a
          version the directory has never registered cannot have
          committed bytes anywhere.
        """
        self.checks += 1
        proxy = self.proxies.get(node)
        pp = getattr(proxy, "payload", None) if proxy is not None else None
        if pp is not None:
            held = pp.cache_version(oid)
            if held != version:
                raise InvariantViolation(
                    "inv-payload-fence", oid, node=node, time=now,
                    serving=version, held=held,
                )
        home = home_node(oid, len(self.proxies)) if self.proxies else None
        mark = self._watermarks.get((home, oid)) if home is not None else None
        if mark is not None and version > mark[1]:
            raise InvariantViolation(
                "inv-payload-fence", oid, node=node, time=now,
                serving=version, watermark=mark, home=home,
            )
