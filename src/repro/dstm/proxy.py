"""The per-node TM proxy: the object-access protocol (Algorithms 2-4).

Responsibilities:

* **local object store** — the objects this node currently owns (dataflow
  model: the single writable copy lives with its owner and migrates);
* **``Open_Object``** (Algorithm 2) — requester side: locate the owner
  (hint cache, falling back to the directory), send the retrieve request
  carrying ``(oid, txid, myCL, ETS)``, and either return the granted
  object, or wait out an assigned backoff racing the object hand-off, or
  raise :class:`TransactionAborted`;
* **``Retrieve_Request``** (Algorithm 3) — owner side: serve free objects
  (migrating ownership to writers), serve committed snapshots to readers,
  and on conflict delegate the abort-or-enqueue decision to the attached
  scheduler policy;
* **``Retrieve_Response`` / hand-offs** (Algorithm 4) — requester side:
  wake the waiting ``Open_Object`` (the paper's ``TransactionQueue`` is
  our ``_waiters`` map); an object arriving for a transaction that
  already gave up is forwarded onward to the next queued requester, which
  works because the remaining requester list ships *with* every ownership
  hand-off (§III-B).

One way to do each thing: a peer is called with
``rpc_client.call(dst, ENDPOINT, payload)``; an object's value leaves the
node through :meth:`TMProxy._send_object`; an arrival nobody waits for is
decided by :meth:`TMProxy.take_unclaimed`.  The proxy is policy-free —
all abort/enqueue choices live in the
:class:`~repro.scheduler.base.SchedulerPolicy` bound at construction —
and holds no optional subsystem: payload resolution
(:mod:`repro.rpc.payload`) and fault recovery
(:mod:`repro.faults.recovery`) attach only when enabled.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.dstm.contention import DoomRegistry, WinnerPolicy
from repro.dstm.errors import AbortReason, TransactionAborted, TransactionError
from repro.dstm.objects import ObjectMode, ObjectState, VersionedObject, home_node
from repro.dstm.transaction import ETS, Transaction
from repro.net.message import Message, MessageType
from repro.net.node import Node
from repro.rpc import ENDPOINTS, LookupCache, PeerUnreachable, RpcClient
from repro.scheduler.base import ConflictContext, DecisionKind, SchedulerPolicy
from repro.scheduler.queues import Requester, RequesterList
from repro.sim import Tracer
from repro.util.stats import Ewma

__all__ = ["Grant", "TMProxy"]

_DIR_LOOKUP = ENDPOINTS.get("dir_lookup")
_RETRIEVE = ENDPOINTS.get("retrieve")

#: execution-time estimate used before the stats table has history
FALLBACK_EXEC_ESTIMATE = 0.05


class Grant:
    """What a successful ``Open_Object`` returns."""

    __slots__ = (
        "oid", "value", "version", "owner_clock", "local_cl", "served_by",
        "psrc",
    )

    def __init__(
        self,
        oid: str,
        value: Any,
        version: int,
        owner_clock: int,
        local_cl: int,
        served_by: int,
        psrc: Optional[int] = None,
    ) -> None:
        self.oid = oid
        self.value = value
        self.version = version
        self.owner_clock = owner_clock
        self.local_cl = local_cl
        self.served_by = served_by
        #: payload plane (proxy mode): node advertised as holding the
        #: bytes for this version — the ObjectProxy factory.  None when
        #: the plane is off or bytes rode the grant eagerly.
        self.psrc = psrc

    def __repr__(self) -> str:
        return f"<Grant {self.oid} v{self.version} from n{self.served_by}>"


class TMProxy:
    """One node's transactional-memory proxy."""

    def __init__(
        self,
        node: Node,
        scheduler: SchedulerPolicy,
        tracer: Optional[Tracer] = None,
        winner_policy: WinnerPolicy = WinnerPolicy.HOLDER_WINS,
        conflict_scope: str = "root",
        rpc_client: Optional[RpcClient] = None,
    ) -> None:
        self.node = node
        self.env = node.env
        self.scheduler = scheduler
        self.tracer = tracer or Tracer()
        #: the typed caller side of the RPC substrate: every call this
        #: node makes goes through it.  The cluster supplies one; a
        #: directly-constructed proxy (tests) gets a policy-free default.
        if rpc_client is None:
            rpc_client = RpcClient(node, tracer=self.tracer)
        self.rpc_client = rpc_client
        self.winner_policy = WinnerPolicy(winner_policy)
        if conflict_scope not in ("root", "level", "mixed"):
            raise ValueError(
                f"conflict_scope must be 'root', 'level' or 'mixed', got {conflict_scope!r}"
            )
        #: who a lost busy-object conflict kills.  "root" (the default,
        #: the paper's semantics) and "level" force one victim for every
        #: conflict.  "mixed" (the closed-nesting model of the paper's TFA
        #: baseline [24]): execution-phase copy fetches abort only the
        #: requesting nested level, while commit-phase acquisitions abort
        #: the whole parent — the "losing parent transactions" RTS
        #: schedules.
        self.conflict_scope = conflict_scope
        #: lazily-aborted transactions (greedy-timestamp ablation)
        self.doomed = DoomRegistry()
        #: runtime invariant sanitizer (repro.check); set by the cluster
        #: when CheckConfig.sanitize is on, else every hook stays a
        #: one-guard no-op
        self.sanitizer = None
        #: this node's :class:`repro.rpc.payload.NodePayload` and
        #: :class:`repro.faults.recovery.NodeRecovery`: set by the cluster
        #: only when their config enables them, otherwise absent.  Called
        #: where a value leaves this node and where custody arrives;
        #: recovery also when a request finds this node not the owner.
        self.payload: Optional[Any] = None
        self.recovery: Optional[Any] = None

        #: objects owned by this node
        self.store: Dict[str, VersionedObject] = {}
        #: the paper's scheduling_List: per-object requester queues
        self.queues: Dict[str, RequesterList] = {}
        #: last known owner per object: the node's directory lookup cache
        #: (shared with TFA validation and fault recovery through the rpc
        #: client).  Hint mode behaves exactly like the plain dict it
        #: replaced; fenced mode invalidates on observed version advance.
        self.owner_hints: LookupCache = rpc_client.cache
        #: the paper's TransactionQueue: (root txid, oid) -> waiting event
        self._waiters: Dict[Tuple[str, str], Any] = {}
        #: EWMA of observed validation-window durations (for holder_remaining)
        self.validation_time = Ewma(alpha=0.3, initial=0.0)
        #: time each VALIDATING/IN_USE state was entered, per oid
        self._hold_started: Dict[str, float] = {}
        #: holder's reported transaction start time, per oid (greedy CM)
        self._holder_start: Dict[str, float] = {}
        #: enqueue-wait reporting hook (repro.check.explore's
        #: bounded-enqueue-time property): called once per completed
        #: hand-off wait with (root txid, oid, budget, waited, won).
        #: None (the default) keeps the wait path on a one-guard no-op.
        self.enqueue_observer: Optional[
            Callable[[str, str, float, float, bool], None]
        ] = None
        #: how many times an expired waiter re-requests before aborting
        self.rerequest_limit = 8
        node.on(MessageType.RETRIEVE_REQUEST, self._on_retrieve_request)
        node.on(MessageType.OBJECT_HANDOFF, self._on_object_handoff)
        # Fire-and-forget ownership registrations still produce acks from
        # the directory shard; absorb the ones no RPC waiter claims.
        node.on(MessageType.DIR_UPDATE_ACK, lambda _msg: None)

    # ------------------------------------------------------------------
    # Setup-time API (used by the cluster bootstrap, outside simulation)
    # ------------------------------------------------------------------

    def install_object(self, oid: str, value: Any, version: int = 0) -> VersionedObject:
        """Place a fresh object at this node (bootstrap only)."""
        if oid in self.store:
            raise TransactionError(f"object {oid} already installed at node {self.node.node_id}")
        obj = VersionedObject(oid, value, version)
        self.store[oid] = obj
        return obj

    # ------------------------------------------------------------------
    # Requester side: Open_Object (Algorithm 2)
    # ------------------------------------------------------------------

    def open_object(
        self,
        tx: Transaction,
        oid: str,
        mode: ObjectMode,
    ) -> Generator[Any, Any, Grant]:
        """Acquire ``oid`` for ``tx`` (generator; use ``yield from``).

        Returns a :class:`Grant`; raises :class:`TransactionAborted` when
        the scheduler rejects us or an assigned backoff expires.
        """
        root = tx.root
        ets = self._build_ets(root)
        span_on = self.tracer.wants("span.phase")
        if span_on:
            self.tracer.emit(
                self.env.now, "span.phase", tx.txid,
                phase="open", edge="B", oid=oid,
            )
        # While an ownership hand-off is in flight, both the directory and
        # the hint chain can be transiently stale; chasing pauses briefly
        # between hops so the migration can land.
        chase_pause = max(self.node.network.topology.min_delay * 0.5, 1e-4)
        try:
            grant = yield from self._open_object_chase(
                tx, root, oid, mode, ets, chase_pause
            )
            if span_on:
                self.tracer.emit(
                    self.env.now, "span.phase", tx.txid,
                    phase="open", edge="E", oid=oid,
                )
            return grant
        except PeerUnreachable as exc:
            # The owner (or the home directory) stayed silent through
            # every retry: environmental failure, the whole root aborts
            # and waits out the scheduler's owner-failure stall.  Lease
            # expiry at the home makes the object retrievable again —
            # drop our hint so the retry asks the directory, not the
            # same dead peer.
            self.owner_hints.pop(oid, None)
            raise TransactionAborted(
                root, AbortReason.OWNER_FAILURE, oid=oid, detail=str(exc)
            )

    def _open_object_chase(
        self,
        tx: Transaction,
        root: Transaction,
        oid: str,
        mode: ObjectMode,
        ets: ETS,
        chase_pause: float,
    ) -> Generator[Any, Any, Grant]:
        expiries = 0
        for hop in range(256):
            owner = self.owner_hints.lookup(oid)
            if self.tracer.wants("rpc.cache"):
                self.tracer.emit(
                    self.env.now, "rpc.cache", oid,
                    node=f"n{self.node.node_id}", hit=owner is not None,
                )
            if owner is None:
                owner = yield from self._lookup_owner(oid)
            reply = yield from self.rpc_client.call(
                owner, _RETRIEVE,
                {
                    "oid": oid, "txid": root.task_id, "mode": mode.value,
                    "my_cl": root.my_cl(),
                    "ets": (ets.start, ets.request, ets.expected_commit),
                },
            )
            p = reply.payload

            if p.get("not_owner"):
                hint = p.get("owner_hint")
                if hint == self.node.node_id and oid not in self.store:
                    # Dead-end hint: the chain points back at us but the
                    # transfer never arrived (lost on the wire).  Fall
                    # back to the directory, whose lease reclaim is the
                    # authority that will re-host the object.
                    self.owner_hints.pop(oid, None)
                elif hint is not None and hint != owner:
                    self.owner_hints[oid] = hint
                else:
                    self.owner_hints.pop(oid, None)
                yield self.env.timeout(chase_pause)
                continue

            if p["granted"]:
                return self._absorb_grant(root, oid, mode, p, reply)

            if p.get("enqueued"):
                # backoff None = parked on the local object lock (no
                # scheduler budget); bounded by a generous cap purely as
                # a live-lock safety valve.
                budget = p["backoff"] if p["backoff"] is not None else 30.0
                span_on = self.tracer.wants("span.phase")
                if span_on:
                    self.tracer.emit(
                        self.env.now, "span.phase", tx.txid,
                        phase="queue", edge="B", oid=oid,
                    )
                grant_payload = yield from self._await_handoff(
                    root, oid, float(budget)
                )
                if span_on:
                    self.tracer.emit(
                        self.env.now, "span.phase", tx.txid,
                        phase="queue", edge="E", oid=oid,
                        won=grant_payload is not None,
                    )
                if grant_payload is None:
                    # Backoff expired before the object arrived.  §III-B:
                    # "the transaction requests the object and is enqueued
                    # again as a new transaction; the duplicated
                    # transaction will be removed from the queue."  We
                    # re-request a bounded number of times (the owner's
                    # removeDuplicate drops our stale entry), then give up
                    # and abort for real.
                    expiries += 1
                    if expiries <= self.rerequest_limit:
                        continue
                    raise TransactionAborted(
                        self._conflict_victim(tx, mode), AbortReason.BACKOFF_EXPIRED,
                        oid=oid, detail=f"backoff {budget:.4f}s expired",
                    )
                return self._absorb_grant(root, oid, mode, grant_payload, None)

            # Plain rejection: the scheduler chose abort.  Per the paper,
            # the loser of a busy-object conflict is the *parent*
            # transaction (§III: "RTS performs two actions for a losing
            # parent transaction") — the 'level' ablation confines the
            # abort to the requesting nested level instead.
            raise TransactionAborted(
                self._conflict_victim(tx, mode), AbortReason.BUSY_OBJECT, oid=oid
            )
        # The object migrated faster than we could chase it for 256 hops —
        # it is extremely contended; treat as losing a conflict on it.
        raise TransactionAborted(
            self._conflict_victim(tx, mode), AbortReason.BUSY_OBJECT, oid=oid,
            detail="owner chase exhausted",
        )

    def _conflict_victim(self, tx: Transaction, mode: ObjectMode) -> Transaction:
        if self.conflict_scope == "root":
            return tx.root
        if self.conflict_scope == "level":
            return tx
        # mixed: inner levels absorb execution-phase (copy) conflicts;
        # commit-phase acquisitions are issued by (and kill) the root.
        return tx if mode.is_copy else tx.root

    def _build_ets(self, root: Transaction) -> ETS:
        now = self.node.now_local
        expected = self.scheduler.expected_duration(
            root.profile, FALLBACK_EXEC_ESTIMATE
        )
        return ETS(
            start=root.start_local_time,
            request=now,
            expected_commit=root.start_local_time + expected,
        )

    def _lookup_owner(self, oid: str) -> Generator[Any, Any, int]:
        home = home_node(oid, self.node.network.num_nodes)
        reply = yield from self.rpc_client.call(home, _DIR_LOOKUP, {"oid": oid})
        p = reply.payload
        if not p["known"]:
            raise TransactionError(f"object {oid} is not registered anywhere")
        self.owner_hints.put(oid, p["owner"], p.get("version"))
        return int(p["owner"])

    def _absorb_grant(
        self,
        root: Transaction,
        oid: str,
        mode: ObjectMode,
        payload: Dict[str, Any],
        reply: Optional[Message],
    ) -> Grant:
        served_by = int(payload["served_by"])
        owner_clock = (
            reply.clock if reply is not None else int(payload.get("owner_clock", 0))
        )
        psrc = payload.get("psrc")
        grant = Grant(
            oid=oid,
            value=payload["value"],
            version=int(payload["version"]),
            owner_clock=owner_clock,
            local_cl=int(payload.get("local_cl", 0)),
            served_by=served_by,
            psrc=int(psrc) if psrc is not None else None,
        )
        root.known_cl[oid] = grant.local_cl
        if mode is ObjectMode.ACQUIRE:
            if payload.get("transferred"):
                # Ownership migrated to us with this grant; the object
                # enters the validation window immediately (we are
                # mid-commit).
                self._install_transferred(oid, payload, holder=root.task_id)
            else:
                # We already owned it (local re-grant): (re-)enter the
                # validation window.
                obj = self.store[oid]
                obj.state = ObjectState.VALIDATING
                obj.holder = root.task_id
                self._hold_started.setdefault(oid, self.node.now_local)
            self._holder_start[oid] = root.start_local_time
            self.owner_hints.put(oid, self.node.node_id, grant.version)
            if self.sanitizer is not None:
                # The just-installed writable copy must be the only
                # non-FREE copy of this version anywhere in the cluster.
                self.sanitizer.check_single_writable_copy(
                    oid, node=self.node.node_id, now=self.env.now
                )
        else:
            self.owner_hints.setdefault(oid, served_by, grant.version)
        if self.tracer.wants("dstm.grant"):
            self.tracer.emit(
                self.env.now, "dstm.grant", oid,
                txid=root.task_id, mode=mode.value, version=grant.version,
                served_by=served_by,
            )
        return grant

    def _install_transferred(
        self, oid: str, payload: Dict[str, Any], holder: Optional[str]
    ) -> None:
        """Install an object whose ownership just migrated to this node."""
        existing = self.store.get(oid)
        if existing is not None and existing.version > int(payload["version"]):
            return  # late duplicate of a transfer we have moved past
        obj = VersionedObject(oid, payload["value"], int(payload["version"]))
        # Custody arrives: the two optional subsystems' call-outs.
        if self.recovery is not None:
            self.recovery.forget(oid)
        if self.payload is not None:
            self.payload.adopt(obj, payload.get("psrc"))
        if holder is not None:
            # Acquisition happens mid-commit: straight into validation.
            obj.state = ObjectState.VALIDATING
            obj.holder = holder
            self._hold_started[oid] = self.node.now_local
        self.store[oid] = obj
        self.owner_hints[oid] = self.node.node_id
        queue_entries: List[Requester] = payload.get("queue") or []
        if queue_entries:
            self.queues[oid] = RequesterList.from_snapshot(
                queue_entries, bk=float(payload.get("bk", 0.0))
            )
            if self.tracer.wants("obs.queue"):
                self._trace_queue(oid)
        # Register ownership with the home directory (asynchronous: the
        # old owner forwards stragglers to us in the meantime).  The
        # last-committed value rides along so the home's recovery
        # snapshot stays current even if the eventual commit publish is
        # lost — transfers always carry committed state.
        home = home_node(oid, self.node.network.num_nodes)
        self.node.send(
            home, MessageType.DIR_UPDATE,
            {
                "oid": oid, "owner": self.node.node_id, "version": None,
                "value": payload["value"], "value_version": int(payload["version"]),
            },
        )

    def _await_handoff(
        self, root: Transaction, oid: str, backoff: float
    ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        """Wait for an object hand-off, racing the assigned backoff."""
        key = (root.task_id, oid)
        waiter = self.env.event()
        self._waiters[key] = waiter
        expiry = self.env.timeout(max(backoff, 0.0))
        started = self.env.now
        outcome = yield (waiter | expiry)
        if waiter in outcome:
            if self.enqueue_observer is not None:
                self.enqueue_observer(
                    root.task_id, oid, backoff, self.env.now - started, True
                )
            return outcome[waiter]
        # Backoff expired first: deregister (Algorithm 2's
        # TransactionQueue.remove) so a late hand-off forwards onward.
        self._waiters.pop(key, None)
        if self.enqueue_observer is not None:
            self.enqueue_observer(
                root.task_id, oid, backoff, self.env.now - started, False
            )
        return None

    # ------------------------------------------------------------------
    # Owner side: Retrieve_Request (Algorithm 3)
    # ------------------------------------------------------------------

    def _on_retrieve_request(self, msg: Message) -> None:
        p = msg.payload
        oid: str = p["oid"]
        root_txid: str = p["txid"]
        mode = ObjectMode(p["mode"])

        obj = self.store.get(oid)
        if obj is None:
            if self.recovery is not None and self.recovery.regrant(msg):
                return  # our lost transfer to this very requester, re-sent
            self.node.reply(
                msg, MessageType.RETRIEVE_RESPONSE,
                {
                    "oid": oid, "granted": False, "not_owner": True,
                    "owner_hint": self.owner_hints.get(oid),
                },
            )
            return

        local_cl = self._local_cl(oid)

        free = obj.state is ObjectState.FREE
        if free or obj.holder == root_txid:
            # A free object serves everyone: a copy is the committed
            # snapshot, ownership unchanged (TFA serves copies
            # optimistically — the requester validates later); a
            # commit-time acquisition migrates the single writable copy.
            # A held object serves only its holder, and stays put.
            self._send_object(
                obj, msg.src, root_txid, local_cl,
                transferred=free and not mode.is_copy, request=msg,
            )
            return

        # ---- conflict: the object is being validated by another commit ----
        queue = self.queues.get(oid)
        if queue is None:
            queue = RequesterList()
            self.queues[oid] = queue
        queue.remove_duplicate(root_txid)
        s, r, c = p["ets"]

        if msg.src == self.node.node_id:
            # Same-node requests never enter distributed contention
            # management: a local thread simply blocks on the proxy's
            # object lock until the validation window closes
            # (microseconds of local waiting in the real system).  The
            # paper's scheduled conflicts are the *remote* ones, priced in
            # round trips.  backoff None = no scheduler budget.
            queue.add_requester(Requester(msg.src, root_txid, mode))
            if self.tracer.wants("sched.decision"):
                self.tracer.emit(
                    self.env.now, "sched.decision", oid,
                    node=f"n{self.node.node_id}", txid=root_txid,
                    action="local_wait", cause="local",
                    cl=queue.get_contention(), threshold=0,
                    bk=queue.bk, elapsed=r - s, backoff=0.0,
                )
            enqueued, backoff = True, None
        else:
            # Contention manager (ablation): an older requester may doom
            # the younger validating holder, which then aborts lazily.
            if (
                self.winner_policy is WinnerPolicy.GREEDY_TIMESTAMP
                and obj.holder is not None
                and s < self._holder_start.get(oid, float("-inf"))
            ):
                self.doomed.doom(obj.holder)

            # Delegate the abort-or-enqueue decision to the scheduler.
            ctx = ConflictContext(
                mode=mode,
                requester_node=msg.src,
                requester_txid=root_txid,
                requester_cl=int(p.get("my_cl", 0)),
                ets=ETS(s, r, c),
                queue=queue,
                holder_remaining=self._holder_remaining(oid),
            )
            decision = self.scheduler.on_conflict(ctx)
            if self.tracer.wants("dstm.conflict"):
                self.tracer.emit(
                    self.env.now, "dstm.conflict", oid,
                    txid=root_txid, mode=mode.value, state=obj.state.value,
                    decision=decision.kind.value, backoff=decision.backoff,
                )
            if self.tracer.wants("sched.decision"):
                self.tracer.emit(
                    self.env.now, "sched.decision", oid,
                    node=f"n{self.node.node_id}", txid=root_txid,
                    action=decision.kind.value,
                    cause=decision.cause or decision.kind.value,
                    cl=decision.contention, threshold=decision.threshold,
                    bk=queue.bk, elapsed=ctx.ets.elapsed, backoff=decision.backoff,
                )
            enqueued = decision.kind is DecisionKind.ENQUEUE
            backoff = decision.backoff if enqueued else 0.0
        if enqueued and self.tracer.wants("obs.queue"):
            self._trace_queue(oid)
        self.node.reply(
            msg, MessageType.RETRIEVE_RESPONSE,
            {
                "oid": oid, "granted": False, "enqueued": enqueued,
                "backoff": backoff, "local_cl": local_cl,
            },
        )

    def _send_object(
        self,
        obj: VersionedObject,
        dst: int,
        txid: str,
        local_cl: int,
        transferred: bool,
        request: Optional[Message] = None,
    ) -> None:
        """THE way an object's value leaves this node: a grant (the
        reply to ``request``) or, with no request to answer, a hand-off
        to root ``txid`` waiting at ``dst``.

        ``transferred`` moves the single writable copy with the message:
        the queue (and its backlog) ships along, and the copy, queue and
        hold state here are gone before the message hits the wire.
        """
        oid = obj.oid
        payload: Dict[str, Any] = {
            "oid": oid, "txid": txid,
            "granted": True, "transferred": transferred,
            "value": obj.value, "version": obj.version,
            "local_cl": local_cl,
            "served_by": self.node.node_id,
            # read from a hand-off only: a grant's is its reply envelope's
            "owner_clock": self.node.clock.tfa_clock,
        }
        wire_bytes = 0
        if self.payload is not None:
            wire_bytes = self.payload.stamp(payload, oid, obj.payload_src)
        if transferred:
            queue = self.queues.pop(oid, None)
            if queue is not None and len(queue):
                payload["queue"] = queue.snapshot()
                payload["bk"] = queue.bk
            del self.store[oid]
            self._hold_started.pop(oid, None)
            self.owner_hints[oid] = dst
            if self.recovery is not None:
                self.recovery.remember(oid, dst, txid, payload, wire_bytes)
        if request is not None:
            self.node.reply(
                request, MessageType.RETRIEVE_RESPONSE, payload,
                wire_bytes=wire_bytes,
            )
        else:
            self.node.send(
                dst, MessageType.OBJECT_HANDOFF, payload, wire_bytes=wire_bytes
            )

    def _local_cl(self, oid: str) -> int:
        """Transactions currently wanting ``oid`` here: the queue, plus
        the validator occupying it.  This is what grants piggyback so
        requesters can maintain myCL at the paper's scale (§III-B's
        worked example uses values of 1-2).  It stands in for §III-A's
        windowed count of recent requesters, which is not modelled."""
        obj = self.store.get(oid)
        validating = 1 if obj is not None and obj.state is ObjectState.VALIDATING else 0
        return self.queue_length(oid) + validating

    def _holder_remaining(self, oid: str) -> float:
        """Estimate of the current holder's remaining hold time."""
        est = self.validation_time.value if self.validation_time.count else 0.0
        if est <= 0.0:
            # No history yet: assume one mean network round trip.
            est = 2.0 * self.node.network.topology.mean_delay()
        started = self._hold_started.get(oid)
        if started is None:
            return est
        elapsed = self.node.now_local - started
        # Hold times are heavy-tailed (a validator can itself be queued
        # behind other commits), so once the mean is exceeded treat the
        # remainder as roughly memoryless rather than nearly done.
        return max(est - elapsed, est * 0.5)

    # ------------------------------------------------------------------
    # Owner side: release + queue service (commit/abort epilogue)
    # ------------------------------------------------------------------

    def begin_validation(self, oid: str, root_txid: str) -> None:
        """Enter the commit validation window for an owned object."""
        obj = self.store[oid]
        obj.state = ObjectState.VALIDATING
        obj.holder = root_txid
        self._hold_started.setdefault(oid, self.node.now_local)
        if self.sanitizer is not None:
            self.sanitizer.check_single_writable_copy(
                oid, node=self.node.node_id, now=self.env.now
            )

    def release_object(self, oid: str, committed: bool) -> None:
        """Release a held object and serve its queue (§III-B hand-offs)."""
        obj = self.store.get(oid)
        if obj is None:
            return
        started = self._hold_started.pop(oid, None)
        self._holder_start.pop(oid, None)
        if started is not None and committed:
            self.validation_time.observe(self.node.now_local - started)
        obj.release()

        queue = self.queues.get(oid)
        if queue is None or not len(queue):
            if queue is not None:
                queue.reset_backlog()
            return
        queue_trace = self.tracer.wants("obs.queue")

        # Every queued snapshot requester (reads and write-copies) gets the
        # committed value simultaneously — §III-B's read multicast.
        for requester in queue.pop_copy_requesters():
            self._send_object(
                obj, requester.node, requester.txid, local_cl=0, transferred=False
            )

        acquirer = queue.pop_next_acquirer()
        if acquirer is None:
            queue.reset_backlog()
            if queue_trace:
                self._trace_queue(oid)
            return
        # Ownership migrates to the first queued committer; the remaining
        # queue (and its backlog) travels with the object.
        self._send_object(
            obj, acquirer.node, acquirer.txid, local_cl=len(queue), transferred=True
        )
        if queue_trace:
            # The queue (and backlog) just migrated away with the object.
            self._trace_queue(oid)

    # ------------------------------------------------------------------
    # Requester side: hand-off arrival (Algorithm 4)
    # ------------------------------------------------------------------

    def _on_object_handoff(self, msg: Message) -> None:
        p = msg.payload
        oid: str = p["oid"]
        txid: str = p["txid"]
        waiter = self._waiters.pop((txid, oid), None)

        if waiter is not None and not waiter.triggered:
            if p.get("transferred"):
                self._install_transferred(oid, p, holder=txid)
                # The install is done; hand the waiter a payload that will
                # not trigger a second install in _absorb_grant.
                p = dict(p, transferred=False)
            waiter.succeed(p)
            return
        # Algorithm 4's else-branch: nobody here needs the object any more.
        self.take_unclaimed(p)

    def take_unclaimed(self, payload: Dict[str, Any]) -> None:
        """An object arrived that no transaction here waits for: a
        hand-off whose waiter gave up or, under fault recovery, a
        ``RETRIEVE_RESPONSE`` whose RPC already timed out.

        A copy is dropped — shared snapshots carry no state.  A transfer
        makes this node the owner (the queue shipped with the object):
        install it and release at once, which forwards it to the next
        queued requester.  "Do I already have it" — what has to make a
        duplicated or late transfer harmless (ROADMAP item 1) — is three
        tests, kept as they were: ``oid in self.store`` on each of the
        two arrival paths, now the one line below, and on every path
        :meth:`_install_transferred` lets a *newer* stored copy win.
        """
        if not payload.get("transferred"):
            return
        oid: str = payload["oid"]
        if oid in self.store:
            return
        self._install_transferred(oid, payload, holder=None)
        self.release_object(oid, committed=False)

    def discard_object(self, oid: str) -> None:
        """Drop a stale owned copy (fault recovery only)."""
        self.store.pop(oid, None)
        self.queues.pop(oid, None)
        self._hold_started.pop(oid, None)
        self._holder_start.pop(oid, None)
        if self.owner_hints.get(oid) == self.node.node_id:
            self.owner_hints.pop(oid, None)

    # ------------------------------------------------------------------
    # Introspection / invariants (tests lean on these)
    # ------------------------------------------------------------------

    def owns(self, oid: str) -> bool:
        return oid in self.store

    def queue_length(self, oid: str) -> int:
        queue = self.queues.get(oid)
        return len(queue) if queue is not None else 0

    def _trace_queue(self, oid: str) -> None:
        """Emit an ``obs.queue`` depth sample (callers guard on wants())."""
        self.tracer.emit(
            self.env.now, "obs.queue", oid,
            node=f"n{self.node.node_id}", len=self.queue_length(oid),
        )

    def __repr__(self) -> str:
        return (
            f"<TMProxy node={self.node.node_id} owns={len(self.store)} "
            f"queues={sum(len(q) for q in self.queues.values())}>"
        )
