"""The Transactional Forwarding Algorithm (TFA) engine.

One engine per node; it implements the transaction-side semantics on top
of the proxy's object-access protocol:

* **reads/writes** with read-set version recording and dataflow write
  acquisition (ownership migrates to the writer's node);
* **transactional forwarding**: every grant piggybacks the serving node's
  transactional clock; observing a clock ahead of the transaction's start
  clock forces an *early validation* of the whole read set — abort on any
  stale entry, otherwise the start clock advances (TFA's forwarding step);
* **the commit protocol**: lock the write set (``VALIDATING`` — the
  paper's conflict window), re-validate the read set against the homes'
  registered versions, globally register ownership + the new versions
  (``DIR_UPDATE`` round trips — the communication that makes distributed
  validation long, §II), bump the node clock, install values, and serve
  the queued requesters;
* **closed-nesting semantics**: inner commits merge into the parent,
  inner aborts roll back only the inner level, parent aborts kill the
  whole subtree and release every acquired object (so a restarted parent
  pays the full re-acquisition cost — exactly the behaviour RTS's
  enqueueing avoids).

Abort bookkeeping feeds the metrics layer through the ``on_root_abort`` /
``on_nested_abort`` callbacks, which the experiment harness uses to build
the paper's Table I.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.dstm.errors import AbortReason, TransactionAborted, TransactionError
from repro.dstm.objects import ObjectMode, ObjectState, home_node
from repro.dstm.proxy import TMProxy
from repro.dstm.transaction import NestingModel, ReadEntry, Transaction, TxStatus
from repro.net.message import MessageType
from repro.rpc import ENDPOINTS, PeerUnreachable
from repro.sim import Event

__all__ = ["TFAEngine"]

_READ_VALIDATE = ENDPOINTS.get("read_validate")
_DIR_UPDATE = ENDPOINTS.get("dir_update")


class TFAEngine:
    """Per-node transaction engine."""

    def __init__(
        self,
        proxy: TMProxy,
        op_local_time: float = 5e-5,
        nesting: NestingModel = NestingModel.CLOSED,
        nested_commit_validation: bool = True,
        abort_overhead: float = 0.01,
        nested_retry_cap: Optional[int] = None,
    ) -> None:
        self.proxy = proxy
        self.node = proxy.node
        self.env = proxy.env
        #: what the kernel profiler and the explorer attribute this
        #: engine's reply-event callbacks to
        self.name = f"n{self.node.node_id}.tfa"
        self.op_local_time = float(op_local_time)
        self.nesting = NestingModel(nesting)
        self.nested_commit_validation = bool(nested_commit_validation)
        self.abort_overhead = float(abort_overhead)
        #: fault mode: default bound on child retries before a nested
        #: abort escalates to the root (None = unbounded, the paper's
        #: fault-free semantics).  ``TransactionHandle.nested`` reads it.
        self.nested_retry_cap = nested_retry_cap
        #: observer hooks (set by the metrics layer)
        self.on_commit_hook: Optional[Callable[[Transaction, float], None]] = None
        self.on_abort_hook: Optional[Callable[[Transaction, AbortReason, List[Transaction]], None]] = None
        #: read/write-set reporting hook (repro.check.explore's
        #: serializability oracle): called once per committed *root* with
        #: a record of what it read and installed, at which versions.
        #: None (the default) keeps commits on a one-guard no-op.
        self.commit_observer: Optional[Callable[[Dict[str, Any]], None]] = None
        #: runtime invariant sanitizer (repro.check); set by the cluster
        #: when CheckConfig.sanitize is on, else every hook stays a
        #: one-guard no-op
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
        self._check_doom(tx)

        # Own (or ancestor) uncommitted write shadows everything.
        if tx.has_local_value(oid):
            yield self.env.timeout(self.op_local_time)
            return tx.lookup_write(oid)

        # Repeated read: serve the recorded value (same version — repeated
        # reads must be stable or opacity is lost).
        for level in tx.ancestors():
            entry = level.rset.get(oid)
            if entry is not None:
                yield self.env.timeout(self.op_local_time)
                return entry.value

        grant = yield from self.proxy.open_object(tx, oid, ObjectMode.READ)
        yield from self.maybe_forward(tx, grant.owner_clock)
        if self.proxy.payload is not None:
            # Payload plane, proxy mode: the grant carried an ObjectProxy,
            # and this read is the moment the destination actually touches
            # the object — resolve the bytes (per-node cache keyed by the
            # version fence; a miss is one PAYLOAD_FETCH round trip).
            # Repeated reads above never reach here, blind writes and
            # commit-time acquisitions never resolve at all.
            yield from self.proxy.payload.resolve_payload(
                grant.oid, grant.version, grant.psrc
            )
        entry = ReadEntry(oid, grant.version, grant.served_by)
        entry.value = grant.value
        tx.rset[oid] = entry
        yield self.env.timeout(self.op_local_time)
        return grant.value

    def write(self, tx: Transaction, oid: str, value: Any) -> Generator[Any, Any, None]:
        """Transactional write (lazy acquisition: buffers the value).

        TFA fetches a committed *copy* during execution — identical to a
        read at the owner — and defers exclusive-ownership acquisition to
        commit time.  The copy's version anchors commit validation: if
        another writer publishes first, our commit validation fails.
        """
        self._ensure_live(tx)
        self._check_doom(tx)

        if not tx.has_read(oid) and not tx.has_local_value(oid):
            grant = yield from self.proxy.open_object(tx, oid, ObjectMode.WRITE)
            yield from self.maybe_forward(tx, grant.owner_clock)
            entry = ReadEntry(oid, grant.version, grant.served_by, grant.value)
            tx.rset[oid] = entry
        tx.record_write(oid, value)
        yield self.env.timeout(self.op_local_time)

    def compute(self, tx: Transaction, duration: float) -> Generator[Any, Any, None]:
        """Local computation inside the transaction body."""
        self._ensure_live(tx)
        if duration < 0:
            raise ValueError(f"negative compute duration {duration}")
        yield self.env.timeout(duration)

    # ------------------------------------------------------------------
    # Transactional forwarding (early validation)
    # ------------------------------------------------------------------

    def maybe_forward(self, tx: Transaction, observed_clock: int) -> Generator[Any, Any, None]:
        """TFA forwarding: advance past a remote clock after revalidating."""
        root = tx.root
        if observed_clock <= root.start_clock:
            return
        stale_level = yield from self._validate_chain(tx)
        if stale_level is not None:
            level, oid = stale_level
            raise TransactionAborted(level, AbortReason.EARLY_VALIDATION, oid=oid)
        root.start_clock = observed_clock

    def _validate_chain(
        self, tx: Transaction
    ) -> Generator[Any, Any, Optional[Tuple[Transaction, str]]]:
        """Validate every read-set entry on the ancestor chain.

        Returns ``(level, oid)`` of the stale entry closest to the root
        (aborting that level kills every deeper level too), or None when
        everything is still valid.
        """
        levels = list(tx.ancestors())[::-1]  # root first
        checks: List[Tuple[Transaction, str, int]] = []
        for level in levels:
            for oid, entry in level.rset.items():
                checks.append((level, oid, entry.version))
        if not checks:
            return None
        own = tx.root.acquired
        results = yield from self._validate_versions(
            [(oid, v) for _, oid, v in checks], own=own
        )
        for (level, oid, _version), valid in zip(checks, results):
            if valid is None:
                # The home never answered (fault mode): the read cannot be
                # proven fresh, so the whole root aborts as an
                # environmental failure rather than a data conflict.
                raise TransactionAborted(
                    tx.root, AbortReason.OWNER_FAILURE, oid=oid,
                    detail="validation home unreachable",
                )
            if not valid:
                return (level, oid)
        return None

    def _validate_versions(
        self, pairs: List[Tuple[str, int]], own: Optional[Set[str]] = None
    ) -> Generator[Any, Any, List[Optional[bool]]]:
        """Check (oid, read version) pairs against the registered versions.

        Tri-state per pair: True = fresh, False = stale, None = the home
        was unreachable through every RPC retry (fault mode only).

        The home directories are the serialisation authority: an owner's
        local store lags the home registry while a commit is in flight
        (registration precedes installation), so checking a merely
        locally-owned copy would admit write skew.  Only objects in
        ``own`` — exclusively acquired by the *validating transaction
        itself*, whose versions therefore cannot move — are checked
        locally; everything else queries its home in parallel (one
        fan-out — the cost model of distributed validation).
        """
        own = own or set()
        results: Dict[int, Optional[bool]] = {}
        remote: List[Tuple[int, str, int]] = []
        for idx, (oid, version) in enumerate(pairs):
            obj = self.proxy.store.get(oid) if oid in own else None
            if obj is not None:
                results[idx] = obj.version == version
            else:
                remote.append((idx, oid, version))

        if remote and self.proxy.rpc_policy is None:
            # Each call is its reply event: no process per call, and the
            # reply folds into the lookup cache at the event it lands on.
            submit = self.proxy.rpc_client.submit
            num_nodes = self.node.network.num_nodes
            replies = []
            for _idx, oid, version in remote:
                reply = submit(
                    home_node(oid, num_nodes), _READ_VALIDATE,
                    {"oid": oid, "version": version},
                )
                reply.callbacks.append(self._fold_validate)
                replies.append(reply)
            answers = yield self.env.all_of(replies)
            for (idx, _oid, _version), reply in zip(remote, replies):
                results[idx] = bool(answers[reply].payload["valid"])
        elif remote:
            # Under a retry policy every call needs its own loop.
            events = []
            for idx, oid, version in remote:
                home = home_node(oid, self.node.network.num_nodes)
                events.append(
                    self._one_validate(home, oid, version)
                )
            procs = [self.env.process(gen, name="validate") for gen in events]
            answers = yield self.env.all_of(procs)
            for (idx, _oid, _version), proc in zip(remote, procs):
                answer = answers[proc]
                results[idx] = None if answer is None else bool(answer)
        return [results[i] for i in range(len(pairs))]

    def _fold_validate(self, reply: Event) -> None:
        """Reply-event callback: :meth:`_one_validate`'s cache fold."""
        p = reply.value.payload
        self.proxy.owner_hints.note_version(p["oid"], p.get("registered_version"))

    def _one_validate(
        self, home: int, oid: str, version: int
    ) -> Generator[Any, Any, Optional[bool]]:
        try:
            reply = yield from self.proxy.rpc_client.call(
                home, _READ_VALIDATE, {"oid": oid, "version": version}
            )
        except PeerUnreachable:
            return None
        # The reply names the registered version: a lookup-cache entry
        # learned at an older version is provably stale — fence it so the
        # next open asks the directory (no-op in hint mode).
        self.proxy.owner_hints.note_version(
            oid, reply.payload.get("registered_version")
        )
        return bool(reply.payload["valid"])

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
        if self.nested_commit_validation and tx.rset:
            tracer = self.proxy.tracer
            span_on = tracer.wants("span.phase")
            if span_on:
                tracer.emit(self.env.now, "span.phase", tx.txid,
                            phase="validate", edge="B")
            pairs = [(oid, entry.version) for oid, entry in tx.rset.items()]
            results = yield from self._validate_versions(pairs)
            for (oid, _version), valid in zip(pairs, results):
                if valid is None:
                    # Unreachable home: environmental, kills the root (an
                    # inner retry could not do better against a dead home).
                    raise TransactionAborted(
                        tx.root, AbortReason.OWNER_FAILURE, oid=oid,
                        detail="validation home unreachable",
                    )
                if not valid:
                    raise TransactionAborted(
                        tx, AbortReason.EARLY_VALIDATION, oid=oid,
                        detail="stale read at nested commit",
                    )
            if span_on:
                tracer.emit(self.env.now, "span.phase", tx.txid,
                            phase="validate", edge="E")
        tx.merge_into_parent()

    def abort_nested(self, tx: Transaction, reason: AbortReason) -> List[Transaction]:
        """Abort an inner level only; parent survives (closed nesting)."""
        if tx.is_root:
            raise TransactionError(f"{tx.txid} is a root; use abort_root")
        killed = tx.mark_aborted()
        self._release_levels(killed)
        if self.on_abort_hook is not None:
            self.on_abort_hook(tx, reason, killed)
        return killed

    # ------------------------------------------------------------------
    # Root commit / abort
    # ------------------------------------------------------------------

    def commit_root(self, root: Transaction) -> Generator[Any, Any, None]:
        """The TFA commit protocol (generator; may raise TransactionAborted)."""
        if not root.is_root:
            raise TransactionError(f"{root.txid} is nested; use commit_nested")
        self._ensure_live(root)
        self._check_doom(root)

        live_children = list(root.live_descendants())
        if live_children:
            raise TransactionError(
                f"{root.txid}: cannot commit with live nested transactions "
                f"({', '.join(c.txid for c in live_children)})"
            )

        tracer = self.proxy.tracer
        span_on = tracer.wants("span.phase")
        txid = root.txid
        if span_on:
            tracer.emit(self.env.now, "span.phase", txid, phase="commit", edge="B")

        if not root.wset:
            # Read-only: validate and finish — no locks, no registration.
            # The snapshot is provably intact at validation start (every
            # home check happens later and passes), so that instant is the
            # serialisation point.
            validation_started = self.env.now
            if span_on:
                tracer.emit(self.env.now, "span.phase", txid, phase="validate", edge="B")
            stale = yield from self._validate_chain(root)
            if stale is not None:
                self.abort_root(root, AbortReason.COMMIT_VALIDATION, oid=stale[1])
                raise TransactionAborted(root, AbortReason.COMMIT_VALIDATION, oid=stale[1])
            if span_on:
                tracer.emit(self.env.now, "span.phase", txid, phase="validate", edge="E")
            root.serialized_at = validation_started
            if self.commit_observer is not None:
                self.commit_observer(self._commit_record(root, {}))
            self._finalize_commit(root)
            if span_on:
                tracer.emit(self.env.now, "span.phase", txid, phase="commit", edge="E")
            return

        registered = False
        old_versions: Dict[str, int] = {}
        try:
            # 1. Acquisition phase (lazy TFA): migrate the single writable
            #    copy of every written object to this node, in sorted
            #    order (avoids AB-BA deadlocks between committers).  Each
            #    acquired object enters the validation window immediately
            #    — this is where the paper's scheduled conflicts happen:
            #    a busy (validating) object routes us through the owner's
            #    scheduler, which enqueues us (RTS) or rejects us.
            if span_on:
                tracer.emit(self.env.now, "span.phase", txid, phase="acquire", edge="B")
            for oid in sorted(root.wset):
                obj = self.proxy.store.get(oid)
                if obj is not None and (
                    obj.state is ObjectState.FREE or obj.holder == root.task_id
                ):
                    self.proxy.begin_validation(oid, root.task_id)
                    root.acquired.add(oid)
                    continue
                yield from self.proxy.open_object(tx=root, oid=oid, mode=ObjectMode.ACQUIRE)
                root.acquired.add(oid)
            if span_on:
                tracer.emit(self.env.now, "span.phase", txid, phase="acquire", edge="E")
                tracer.emit(self.env.now, "span.phase", txid, phase="register", edge="B")

            # 2. Global registration *before* validation: publish
            #    (owner, new version) at each home directory and wait for
            #    every ack — the paper's "global registration of object
            #    ownership".  Registering first is what makes distributed
            #    validation sound: any concurrent validator of an object
            #    we are committing now observes the advanced version and
            #    fails, which closes the write-skew window two crossing
            #    read/write commits would otherwise have.
            old_versions = {oid: self.proxy.store[oid].version for oid in root.wset}
            new_versions = {oid: v + 1 for oid, v in old_versions.items()}
            order = sorted(root.wset)
            policy_free = self.proxy.rpc_policy is None
            calls = []
            for oid in order:
                home = home_node(oid, self.node.network.num_nodes)
                if policy_free:
                    # the registration is its reply event (as in
                    # _validate_versions); the ack folds as it lands
                    call = self.proxy.rpc_client.submit(
                        home, _DIR_UPDATE,
                        {"oid": oid, "owner": self.node.node_id,
                         "version": new_versions[oid], "txid": root.txid},
                    )
                    call.callbacks.append(self._fold_register)
                else:
                    call = self.env.process(
                        self._register(home, oid, new_versions[oid], root.txid),
                        name=f"n{self.node.node_id}.register",
                    )
                calls.append(call)
            answers = yield self.env.all_of(calls)
            registered = True

            # 2b. Inspect the acks (no-ops in the fault-free build, where
            #     every ack is ok).  A *fenced* registration means a lease
            #     reclaim or competing recovery superseded the copy while
            #     we held it: the copy is stale — drop it and abort.  An
            #     *unreachable* home leaves the registration unknown:
            #     also abort; the withdraws in the except-arm roll back
            #     whatever did land.
            for oid, call in zip(order, calls):
                # a reply event carries the ack message, a process its payload
                ack = (answers[call].payload if policy_free else answers[call]) or {}
                if ack.get("ok", True):
                    continue
                if ack.get("unreachable"):
                    raise TransactionAborted(
                        root, AbortReason.OWNER_FAILURE, oid=oid,
                        detail="registration home unreachable",
                    )
                self.proxy.discard_object(oid)
                raise TransactionAborted(
                    root, AbortReason.OWNER_FAILURE, oid=oid,
                    detail="registration fenced by recovery",
                )
            if span_on:
                tracer.emit(self.env.now, "span.phase", txid, phase="register", edge="E")
                tracer.emit(self.env.now, "span.phase", txid, phase="validate", edge="B")

            # 3. Read-set validation against the homes' registered
            #    versions (covers write-set anchors too: a concurrent
            #    committer that published first invalidates us here).
            stale = yield from self._validate_chain(root)
            if stale is not None:
                raise TransactionAborted(
                    root, AbortReason.COMMIT_VALIDATION, oid=stale[1]
                )
            if span_on:
                tracer.emit(self.env.now, "span.phase", txid, phase="validate", edge="E")
        except TransactionAborted as abort:
            if registered:
                # Withdraw the provisional registrations (the values were
                # never installed) before aborting.
                self._withdraw_registrations(old_versions, root.txid)
            self.abort_root(root, abort.reason, oid=abort.oid)
            raise
        except BaseException:
            # Defensive: never leave objects locked on unexpected errors.
            self._release_levels([root])
            raise

        # 4. Install values, bump the transactional clock, release + serve
        #    queues.  (Single event-loop turn: atomic within the node.)
        self.node.clock.tick()
        root.serialized_at = self.env.now
        for oid, value in root.wset.items():
            obj = self.proxy.store[oid]
            obj.commit_write(value)
            if self.proxy.payload is not None:
                # The committer just produced the bytes of the new version
                # locally: it becomes the payload factory for this fence,
                # and every remote cache entry is stale by construction.
                obj.payload_src = self.node.node_id
                self.proxy.payload.plane.note_materialize(
                    self.node.node_id, oid, obj.version
                )
            if self.proxy.owner_hints.fencing:
                # Advance our own cache entry to the registered version,
                # or the next validate reply would fence the entry for an
                # object we ourselves hold.  (Fenced mode only: hint mode
                # must stay byte-identical to the legacy dict.)
                self.proxy.owner_hints.put(
                    oid, self.node.node_id, new_versions[oid]
                )
        root.status = TxStatus.COMMITTED
        recovery = self.proxy.recovery
        if recovery is not None:
            # Fault mode: sync every committed (version, value) to its
            # home's recovery snapshot.  Capture before release: the
            # hand-off may migrate the object away in the same turn.
            to_publish = [
                (oid, new_versions[oid], root.wset[oid]) for oid in sorted(root.wset)
            ]
        else:
            to_publish = []
        if self.commit_observer is not None:
            # Capture before release: the hand-off may migrate written
            # objects (and their store entries) away in the same turn.
            self.commit_observer(self._commit_record(root, new_versions))
        for oid in sorted(root.wset):
            self.proxy.release_object(oid, committed=True)
        for oid, version, value in to_publish:
            self.env.process(
                recovery.publish_commit(oid, version, value), name="publish"
            )
        self._finalize_commit(root)
        if span_on:
            tracer.emit(self.env.now, "span.phase", txid, phase="commit", edge="E")

    def _register(
        self, home: int, oid: str, version: int, txid: str
    ) -> Generator[Any, Any, Dict[str, Any]]:
        """One commit-time ownership registration; returns the ack payload
        (synthesises a failure ack when the home is unreachable).

        ``txid`` identifies this commit *attempt*: a later withdraw only
        cancels the registration carrying the same txid, so a duplicated
        or late withdraw can never roll back a different (successful)
        registration by the same owner.
        """
        try:
            reply = yield from self.proxy.rpc_client.call(
                home, _DIR_UPDATE,
                {"oid": oid, "owner": self.node.node_id, "version": version,
                 "txid": txid},
            )
        except PeerUnreachable:
            return {"oid": oid, "ok": False, "unreachable": True}
        self._note_ack(oid, reply.payload)
        return reply.payload

    def _fold_register(self, reply: Event) -> None:
        """Reply-event callback: :meth:`_register`'s cache fold."""
        ack = reply.value.payload
        self._note_ack(ack["oid"], ack)

    def _note_ack(self, oid: str, ack: Dict[str, Any]) -> None:
        if not ack.get("ok", True) and ack.get("registered_owner") is not None:
            # A fenced registration ack is authoritative: it names the
            # real owner and version — refresh the lookup cache with it
            # (no-op in hint mode).
            self.proxy.owner_hints.note_version(
                oid, ack.get("registered_version"),
                owner=ack["registered_owner"],
            )

    def _withdraw_registrations(
        self, old_versions: Dict[str, int], txid: str
    ) -> None:
        """Roll back step 2's provisional registrations.

        Homes honour a withdraw only while the sender is still the
        registered owner and the withdrawn registration (same txid, same
        version transition) is the one in place, so sending one for a
        fenced or superseded oid is harmless.  Under fault injection the
        withdraw is retried (a lost withdraw would leave the registered
        version ahead of the committed copy, starving readers of the
        object until its next write commit); fault-free it stays a single
        fire-and-forget send.
        """
        for oid in sorted(old_versions):
            home = home_node(oid, self.node.network.num_nodes)
            payload = {
                "oid": oid, "owner": self.node.node_id,
                "version": old_versions[oid], "withdraw": True,
                "txid": txid,
            }
            if self.proxy.rpc_policy is None:
                self.node.send(home, MessageType.DIR_UPDATE, payload)
            else:
                self.env.process(
                    self._withdraw_one(home, payload), name="withdraw"
                )

    def _withdraw_one(
        self, home: int, payload: Dict[str, Any]
    ) -> Generator[Any, Any, None]:
        try:
            yield from self.proxy.rpc_client.call(home, _DIR_UPDATE, payload)
        except PeerUnreachable:
            pass  # crashed home: its stale registration heals via reclaim

    def _commit_record(
        self, root: Transaction, new_versions: Dict[str, int]
    ) -> Dict[str, Any]:
        """The committed root's read/write footprint for the oracle.

        ``reads`` are the version anchors the commit validated (nested
        levels folded in by ``merge_into_parent``); ``writes`` are the
        versions this commit installed.  Sorted by oid so the record is
        deterministic regardless of dict insertion order.
        """
        return {
            "txid": root.txid,
            "task_id": root.task_id,
            "node": self.node.node_id,
            "serialized_at": root.serialized_at,
            "reads": [
                (oid, root.rset[oid].version, root.rset[oid].value)
                for oid in sorted(root.rset)
            ],
            "writes": [
                (oid, new_versions[oid], root.wset[oid])
                for oid in sorted(new_versions)
            ],
        }

    def _finalize_commit(self, root: Transaction) -> None:
        if self.sanitizer is not None:
            # An attempt that aborted (OWNER_FAILURE included) must never
            # reach commit finalisation.
            self.sanitizer.check_commit(
                root.txid, node=self.node.node_id, now=self.env.now
            )
        root.status = TxStatus.COMMITTED
        now = self.node.now_local
        duration = now - root.start_local_time
        self.proxy.scheduler.on_commit(root, duration)
        self.proxy.scheduler.note_commit_time(now)
        self.proxy.doomed.clear(root.task_id)
        if self.on_commit_hook is not None:
            self.on_commit_hook(root, duration)

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
        self.proxy.doomed.clear(root.task_id)
        self.proxy.scheduler.on_abort(root, reason)
        if self.on_abort_hook is not None:
            self.on_abort_hook(root, reason, killed)
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

    def _check_doom(self, tx: Transaction) -> None:
        """Lazy contention-manager kill (greedy-timestamp ablation)."""
        root = tx.root
        reason = self.proxy.doomed.check(root.task_id)
        if reason is not None:
            raise TransactionAborted(root, reason)

    def __repr__(self) -> str:
        return f"<TFAEngine node={self.node.node_id} nesting={self.nesting.value}>"
