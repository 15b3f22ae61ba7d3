"""The Transactional Forwarding Algorithm (TFA) engine.

One engine per node; it implements the transaction-side semantics on top
of the proxy's object-access protocol:

* **reads/writes** with read-set version recording and dataflow write
  acquisition (ownership migrates to the writer's node);
* **transactional forwarding**: every grant piggybacks the serving node's
  transactional clock; observing a clock ahead of the transaction's start
  clock forces an *early validation* of the whole read set — abort on any
  stale entry, otherwise the start clock advances (TFA's forwarding step);
* **the commit protocol**, four phases: acquire the write set
  (``VALIDATING`` — the paper's conflict window), register ownership +
  the new versions at the homes (``DIR_UPDATE`` round trips — what makes
  distributed validation long, §II), validate the read set against the
  homes' registered versions, then install and serve the queued requesters;
* **closed-nesting semantics**: inner commits merge into the parent,
  inner aborts roll back only the inner level, parent aborts kill the
  whole subtree and release every acquired object (so a restarted parent
  pays the full re-acquisition cost — exactly the behaviour RTS's
  enqueueing avoids).

Every root commit and every abort (root or nested) is reported straight
to the cluster's metrics (``metrics.on_commit`` / ``metrics.on_abort``),
from which the experiment harness builds the paper's Table I.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Set, Tuple

from repro.dstm.errors import AbortReason, TransactionAborted, TransactionError
from repro.dstm.objects import ObjectMode, ObjectState, home_node
from repro.dstm.proxy import TMProxy
from repro.dstm.transaction import NestingModel, ReadEntry, Transaction, TxStatus
from repro.rpc import ENDPOINTS
from repro.net.message import Message
from repro.sim import Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import MetricsCollector

__all__ = ["OP_LOCAL_TIME", "TFAEngine"]

#: local CPU time consumed per transactional operation (and the floor of
#: a retry's restart stall, ``repro.core.api``)
OP_LOCAL_TIME = 5e-5

_READ_VALIDATE = ENDPOINTS.get("read_validate")
_DIR_UPDATE = ENDPOINTS.get("dir_update")


class TFAEngine:
    """Per-node transaction engine."""

    def __init__(
        self,
        proxy: TMProxy,
        metrics: "MetricsCollector",
        nesting: NestingModel = NestingModel.CLOSED,
        abort_overhead: float = 0.01,
        nested_retry_cap: Optional[int] = None,
    ) -> None:
        self.proxy = proxy
        #: the cluster's counters: every root commit and every abort
        #: (root or nested) is reported to them
        self.metrics = metrics
        self.node = proxy.node
        self.env = proxy.env
        #: cluster size: what ``home_node`` reads
        self.num_nodes = proxy.num_nodes
        self.nesting = NestingModel(nesting)
        self.abort_overhead = float(abort_overhead)
        #: fault mode: default bound on child retries before a nested
        #: abort escalates to the root (``repro.faults.recovery.
        #: NESTED_RETRY_CAP``; None = unbounded, the paper's fault-free
        #: semantics).  ``TransactionHandle.nested`` reads it.
        self.nested_retry_cap = nested_retry_cap
        #: runtime invariant sanitizer (repro.check); set by the cluster
        #: when CheckConfig.sanitize is on, else every hook stays a
        #: one-guard no-op.  It is the one observer of a committed root.
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin(
        self,
        profile: str = "default",
        parent: Optional[Transaction] = None,
        task_id: Optional[str] = None,
    ) -> Transaction:
        """Start a transaction (root when ``parent`` is None)."""
        return Transaction(
            node=self.node.node_id,
            parent=parent,
            profile=profile,
            nesting=self.nesting,
            start_local_time=self.node.now_local,
            start_clock=self.node.clock.tfa_clock,
            task_id=task_id,
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def read(self, tx: Transaction, oid: str) -> Generator[Any, Any, Any]:
        """Transactional read (generator; ``yield from``)."""
        self._ensure_live(tx)

        # Own (or ancestor) uncommitted write shadows everything.
        if tx.has_local_value(oid):
            yield OP_LOCAL_TIME
            return tx.lookup_write(oid)

        # Repeated read: serve the recorded value (same version — repeated
        # reads must be stable or opacity is lost).  Walked by ``parent``,
        # as in Transaction.lookup_write.
        level: Optional[Transaction] = tx
        while level is not None:
            entry = level.rset.get(oid)
            if entry is not None:
                yield OP_LOCAL_TIME
                return entry.value
            level = level.parent

        grant = yield from self.proxy.open_object(tx, oid, ObjectMode.READ)
        yield from self.maybe_forward(tx, grant.owner_clock)
        if self.proxy.payload is not None:
            # Payload plane: the grant carried an ObjectProxy, and this
            # read is the moment the destination actually touches the
            # object — resolve the bytes (per-node cache keyed by the
            # version fence; a miss is one PAYLOAD_FETCH round trip).
            # Repeated reads above never reach here, blind writes and
            # commit-time acquisitions never resolve at all.
            yield from self.proxy.payload.resolve_payload(
                grant.oid, grant.version, grant.psrc
            )
        entry = ReadEntry(oid, grant.version, grant.served_by)
        entry.value = grant.value
        tx.rset[oid] = entry
        yield OP_LOCAL_TIME
        return grant.value

    def write(self, tx: Transaction, oid: str, value: Any) -> Generator[Any, Any, None]:
        """Transactional write (lazy acquisition: buffers the value).

        TFA fetches a committed *copy* during execution — identical to a
        read at the owner — and defers exclusive-ownership acquisition to
        commit time.  The copy's version anchors commit validation: if
        another writer publishes first, our commit validation fails.
        """
        self._ensure_live(tx)

        if not tx.has_read(oid) and not tx.has_local_value(oid):
            grant = yield from self.proxy.open_object(tx, oid, ObjectMode.WRITE)
            yield from self.maybe_forward(tx, grant.owner_clock)
            entry = ReadEntry(oid, grant.version, grant.served_by, grant.value)
            tx.rset[oid] = entry
        tx.record_write(oid, value)
        yield OP_LOCAL_TIME

    def compute(self, tx: Transaction, duration: float) -> Generator[Any, Any, None]:
        """Local computation inside the transaction body."""
        self._ensure_live(tx)
        if duration < 0:
            raise ValueError(f"negative compute duration {duration}")
        yield duration

    # ------------------------------------------------------------------
    # Transactional forwarding (early validation)
    # ------------------------------------------------------------------

    def maybe_forward(self, tx: Transaction, observed_clock: int) -> Generator[Any, Any, None]:
        """TFA forwarding: advance past a remote clock after revalidating."""
        root = tx.root
        if observed_clock <= root.start_clock:
            return
        chain = [tx]
        level = tx.parent
        while level is not None:
            chain.append(level)
            level = level.parent
        chain.reverse()  # root first
        stale = yield from self._first_stale(chain, root.acquired)
        if stale is not None:
            level, oid = stale
            raise TransactionAborted(level, AbortReason.EARLY_VALIDATION, oid=oid)
        root.start_clock = observed_clock

    def _first_stale(
        self, levels: List[Transaction], own: Set[str]
    ) -> Generator[Any, Any, Optional[Tuple[Transaction, str]]]:
        """Validate the read sets of ``levels`` (root first) in one pass.

        Returns ``(level, oid)`` of the first stale entry in that order
        (for a chain: the one closest to the root — aborting that level
        kills every deeper level too), or None when everything is still
        valid.  A home that stayed silent through every RPC retry (fault
        mode) decides too, if it comes first: the read cannot be proven
        fresh, so the whole root aborts as an environmental failure
        (``OWNER_FAILURE``) rather than a data conflict.

        The home directories are the serialisation authority: an owner's
        local store lags the home registry while a commit is in flight
        (registration precedes installation), so checking a merely
        locally-owned copy would admit write skew.  Only objects in
        ``own`` — exclusively acquired by the *validating transaction
        itself*, whose versions therefore cannot move — are checked
        locally; everything else queries its home in parallel (one
        fan-out — the cost model of distributed validation).  Each call
        is its reply signal, and the reply folds into the lookup cache in
        the call entry it lands in; one join resumes the validator.
        """
        store = self.proxy.store
        client = self.proxy.rpc_client
        submit = client.submit
        num_nodes = self.num_nodes
        checks: List[Tuple[Transaction, str, Any]] = []
        replies: List[Signal] = []
        for level in levels:
            for oid, entry in level.rset.items():
                obj = store.get(oid) if oid in own else None
                if obj is not None:
                    checks.append((level, oid, obj.version == entry.version))
                    continue
                reply = submit(
                    home_node(oid, num_nodes), _READ_VALIDATE,
                    {"oid": oid, "version": entry.version},
                )
                replies.append(reply)
                checks.append((level, oid, reply))
        if replies:
            yield client.join(replies, self._fold_validate)
        for level, oid, verdict in checks:
            if isinstance(verdict, Signal):
                reply = verdict._value  # settled: the join has resumed us
                if reply is None:
                    raise TransactionAborted(
                        levels[0].root, AbortReason.OWNER_FAILURE, oid=oid,
                        detail="validation home unreachable",
                    )
                verdict = reply.payload["valid"]
            if not verdict:
                return (level, oid)
        return None

    def _fold_validate(self, msg: Optional[Message]) -> None:
        """Validation-join fold: the reply names the registered version —
        a lookup-cache entry learned at an older version is provably
        stale, so fence it and the next open asks the directory (no-op in
        hint mode)."""
        if msg is not None:
            p = msg.payload
            self.proxy.owner_hints.note_version(p["oid"], p.get("registered_version"))

    # ------------------------------------------------------------------
    # Nested transactions
    # ------------------------------------------------------------------

    def commit_nested(self, tx: Transaction) -> Generator[Any, Any, None]:
        """Closed-nested child commit (generator; ``yield from``).

        Before merging into the parent, the child's *own* read-set entries
        are validated against the homes' registered versions (the closed
        nesting model of Turcu & Ravindran [24]: an inner commit only
        merges consistent data — an inner transaction that read stale data
        aborts *alone* and retries, which is exactly the paper's first
        nested-abort cause, "early validation or inconsistency of
        objects").  Validation is one parallel fan-out; ancestors' entries
        are revalidated later at forwarding points and at the root commit.
        """
        if tx.is_root:
            raise TransactionError(f"{tx.txid} is a root; use commit_root")
        self._ensure_live(tx)
        if tx.rset:
            # Own entries only: an unreachable home kills the root (an
            # inner retry could not do better against a dead home), a
            # stale entry only this level.
            tracer = self.proxy.tracer
            yield from self._validate(tx, set(), AbortReason.EARLY_VALIDATION,
                                      "stale read at nested commit",
                                      tracer.enabled and tracer.wants("span.phase"))
        tx.merge_into_parent()

    def abort_nested(self, tx: Transaction, reason: AbortReason) -> List[Transaction]:
        """Abort an inner level only; parent survives (closed nesting)."""
        if tx.is_root:
            raise TransactionError(f"{tx.txid} is a root; use abort_root")
        killed = tx.mark_aborted()
        self._release_levels(killed)
        self.metrics.on_abort(tx, reason, killed)
        return killed

    # ------------------------------------------------------------------
    # Root commit / abort
    # ------------------------------------------------------------------

    def commit_root(self, root: Transaction) -> Generator[Any, Any, None]:
        """The TFA commit protocol (generator; may raise TransactionAborted).

        Four phases: :meth:`_acquire` the written objects,
        :meth:`_register` the new versions at their homes,
        :meth:`_validate` the read set, :meth:`_install`.  A read-only
        root skips the first two.  Under fault recovery a writer whose
        registrations outlived their lease by its own clock (a home may
        have re-hosted) aborts with ``OWNER_FAILURE``.  An abort withdraws
        the registrations, then aborts the root; any other error releases
        its objects.
        """
        if not root.is_root:
            raise TransactionError(f"{root.txid} is nested; use commit_nested")
        self._ensure_live(root)

        live = list(root.live_descendants())
        if live:
            raise TransactionError(f"{root.txid}: cannot commit with live nested "
                                   f"transactions ({', '.join(c.txid for c in live)})")

        tracer = self.proxy.tracer
        span_on = tracer.enabled and tracer.wants("span.phase")
        if span_on:
            self._edge(root, "commit", "B")
        new_versions: Dict[str, int] = {}
        try:
            if root.wset:
                yield from self._acquire(root, span_on)
                registered_at = self.env.now
                new_versions = yield from self._register(root, span_on)
            validation_started = self.env.now
            yield from self._validate(root, root.acquired, AbortReason.COMMIT_VALIDATION,
                                      "", span_on)
            recovery = self.proxy.recovery
            if new_versions and recovery is not None and recovery.lease_lapsed(registered_at):
                raise TransactionAborted(root, AbortReason.OWNER_FAILURE,
                                         detail="registration lease lapsed")
        except TransactionAborted as abort:
            if new_versions:
                # never installed: withdraw the registrations first
                self._withdraw_registrations(new_versions, root.txid)
            self.abort_root(root, abort.reason, oid=abort.oid)
            raise
        except BaseException:
            # Defensive: never leave objects locked on unexpected errors.
            self._release_levels([root])
            raise
        self._install(root, new_versions, validation_started)
        if span_on:
            self._edge(root, "commit", "E")

    def _edge(self, tx: Transaction, phase: str, edge: str) -> None:
        """One ``span.phase`` edge of ``tx`` (callers hold the guard)."""
        self.proxy.tracer.emit(self.env.now, "span.phase", tx.txid, phase=phase, edge=edge)

    def _acquire(self, root: Transaction, span_on: bool) -> Generator[Any, Any, None]:
        """Phase 1 (lazy TFA): migrate the single writable copy of every
        written object here, in sorted order (no AB-BA deadlocks between
        committers).  Each enters the validation window at once — where
        the paper's scheduled conflicts happen: a busy (validating)
        object routes us through its owner's scheduler, which enqueues us
        (RTS) or rejects us."""
        if span_on:
            self._edge(root, "acquire", "B")
        store = self.proxy.store
        for oid in sorted(root.wset):
            obj = store.get(oid)
            if obj is not None and (obj.state is ObjectState.FREE
                                    or obj.holder == root.task_id):
                self.proxy.begin_validation(oid, root.task_id)
            else:
                yield from self.proxy.open_object(tx=root, oid=oid, mode=ObjectMode.ACQUIRE)
            root.acquired.add(oid)
        if span_on:
            self._edge(root, "acquire", "E")

    def _register(self, root: Transaction,
                  span_on: bool) -> Generator[Any, Any, Dict[str, int]]:
        """Phase 2: publish (owner, new version) at every home and wait
        for every ack — the paper's "global registration of object
        ownership".  Returns the registered versions.

        Registering *before* validation makes distributed validation
        sound: a concurrent validator of an object we are committing now
        sees the advanced version and fails, closing the write-skew
        window of two crossing read/write commits.  Each registration is
        its reply signal and its ack folds as it lands; ``txid`` names this
        *attempt*, so a duplicated or late withdraw never rolls back
        another registration by the same owner.  Once every call has an
        outcome, an *unreachable* home (the call resolved None) or a
        *fenced* ack (recovery superseded our copy: drop it) withdraws
        every registration and aborts the root.
        """
        if span_on:
            self._edge(root, "register", "B")
        store = self.proxy.store
        new_versions = {oid: store[oid].version + 1 for oid in root.wset}
        client = self.proxy.rpc_client
        submit = client.submit
        num_nodes = self.num_nodes
        order = sorted(new_versions)
        calls: List[Signal] = []
        for oid in order:
            call = submit(
                home_node(oid, num_nodes), _DIR_UPDATE,
                {"oid": oid, "owner": self.node.node_id,
                 "version": new_versions[oid], "txid": root.txid,
                 "gen": store[oid].gen},
            )
            calls.append(call)
        yield client.join(calls, self._fold_register)
        for oid, call in zip(order, calls):
            reply = call._value  # settled: the join has resumed us
            if reply is None:
                detail = "registration home unreachable"
            elif not reply.payload.get("ok", True):
                self.proxy.discard_object(oid)
                detail = "registration fenced by recovery"
            else:
                continue
            self._withdraw_registrations(new_versions, root.txid)
            raise TransactionAborted(root, AbortReason.OWNER_FAILURE, oid=oid, detail=detail)
        if span_on:
            self._edge(root, "register", "E")
        return new_versions

    def _validate(self, tx: Transaction, own: Set[str], reason: AbortReason,
                  detail: str, span_on: bool) -> Generator[Any, Any, None]:
        """Phase 3: validate ``tx``'s own read set against the homes'
        registered versions (for a root this covers the write-set anchors
        too: a concurrent committer that published first invalidates us
        here).  A stale entry aborts ``tx`` with ``reason`` and
        ``detail``; an unreachable home aborts the root."""
        if span_on:
            self._edge(tx, "validate", "B")
        stale = yield from self._first_stale([tx], own)
        if stale is not None:
            raise TransactionAborted(tx, reason, oid=stale[1], detail=detail)
        if span_on:
            self._edge(tx, "validate", "E")

    def _install(self, root: Transaction, new_versions: Dict[str, int],
                 validation_started: float) -> None:
        """Phase 4, the one exit: bump the clock, install values, release
        + serve queues, account the commit — one event-loop turn, atomic
        within the node.  A read-only root installs nothing: its snapshot
        is provably intact at validation start (every home check passes
        later), so that instant is its serialisation point.
        """
        if new_versions:
            self.node.clock.tick()
            root.serialized_at = self.env.now
        else:
            root.serialized_at = validation_started
        for oid, value in root.wset.items():
            obj = self.proxy.store[oid]
            obj.commit_write(value)
            if self.proxy.payload is not None:
                # The committer just produced the bytes of the new version
                # locally: it becomes the payload factory for this fence,
                # and every remote cache entry is stale by construction.
                obj.payload_src = self.node.node_id
                self.proxy.payload.plane.note_materialize(self.node.node_id, oid, obj.version)
            self.proxy.owner_hints.note_install(oid, self.node.node_id, new_versions[oid])
        root.status = TxStatus.COMMITTED
        recovery = self.proxy.recovery
        if recovery is not None:
            # Fault mode: sync every installed copy to its home's recovery
            # snapshot, before the release below can hand it on.
            for oid in sorted(root.wset):
                recovery.publish_commit(self.proxy.store[oid])
        for oid in sorted(root.wset):
            self.proxy.release_object(oid, committed=True)
        if self.sanitizer is not None:
            # An attempt that aborted (OWNER_FAILURE included) must never
            # reach commit finalisation; the committed root joins the
            # history the serializability oracle reads.
            self.sanitizer.note_commit(
                root, new_versions, node=self.node.node_id, now=self.env.now
            )
        now = self.node.now_local
        duration = now - root.start_local_time
        self.proxy.scheduler.on_commit(root, duration, now)
        self.metrics.on_commit(root, duration)

    def _fold_register(self, msg: Optional[Message]) -> None:
        """Registration-join fold: a fenced registration ack is
        authoritative — it names the real owner and version — so refresh
        the lookup cache with it (no-op in hint mode)."""
        if msg is None:
            return
        ack = msg.payload
        if not ack.get("ok", True) and ack.get("registered_owner") is not None:
            self.proxy.owner_hints.note_version(
                ack["oid"], ack.get("registered_version"),
                owner=ack["registered_owner"],
            )

    def _withdraw_registrations(
        self, new_versions: Dict[str, int], txid: str
    ) -> None:
        """Roll back :meth:`_register`'s provisional registrations (each
        the transition ``version - 1 → version``).

        Homes honour a withdraw only while the sender is still the
        registered owner and the withdrawn registration (same txid, same
        version transition) is the one in place, so sending one for a
        fenced or superseded oid is harmless.  Nobody waits on a withdraw
        (:meth:`~repro.rpc.RpcClient.post`): under fault injection it is
        retried (a lost withdraw would leave the registered version ahead
        of the committed copy, starving readers of the object until its
        next write commit; a crashed home heals via reclaim); fault-free
        it is a single fire-and-forget send.
        """
        post = self.proxy.rpc_client.post
        num_nodes = self.num_nodes
        for oid in sorted(new_versions):
            post(
                home_node(oid, num_nodes), _DIR_UPDATE,
                {"oid": oid, "owner": self.node.node_id,
                 "version": new_versions[oid] - 1, "withdraw": True,
                 "txid": txid},
            )

    def abort_root(
        self,
        root: Transaction,
        reason: AbortReason,
        oid: Optional[str] = None,
    ) -> List[Transaction]:
        """Abort a root transaction and its whole subtree; release objects."""
        if not root.is_root:
            raise TransactionError(f"{root.txid} is nested; use abort_nested")
        if root.status is not TxStatus.LIVE:
            return []
        killed = root.mark_aborted()
        if self.sanitizer is not None:
            self.sanitizer.note_abort(
                root.txid, reason.value, now=self.env.now
            )
        self._release_levels(killed)
        self.metrics.on_abort(root, reason, killed)
        return killed

    def _release_levels(self, levels: List[Transaction]) -> None:
        """Release every object acquired by the given (dead) levels."""
        released: Set[str] = set()
        for level in levels:
            released.update(level.acquired)
        for oid in sorted(released):
            obj = self.proxy.store.get(oid)
            if obj is not None and obj.holder in {lvl.task_id for lvl in levels}:
                self.proxy.release_object(oid, committed=False)

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------

    def _ensure_live(self, tx: Transaction) -> None:
        if tx.status is not TxStatus.LIVE:
            raise TransactionError(
                f"{tx.txid}: operation on {tx.status.value} transaction"
            )

    def __repr__(self) -> str:
        return f"<TFAEngine node={self.node.node_id} nesting={self.nesting.value}>"
