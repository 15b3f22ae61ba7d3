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

The proxy is deliberately policy-free: all abort/enqueue choices live in
the :class:`~repro.scheduler.base.SchedulerPolicy` instance bound at
construction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.dstm.contention import DoomRegistry, WinnerPolicy
from repro.dstm.directory import DirectoryShard
from repro.dstm.errors import (
    AbortReason,
    OwnerUnreachable,
    TransactionAborted,
    TransactionError,
)
from repro.dstm.objects import ObjectMode, ObjectState, VersionedObject, home_node
from repro.dstm.transaction import ETS, Transaction
from repro.net.message import Message, MessageType
from repro.net.node import Node
from repro.rpc import ENDPOINTS, Endpoint, LookupCache, PeerUnreachable, RpcClient
from repro.scheduler.base import (
    ConflictContext,
    ConflictDecision,
    DecisionKind,
    SchedulerPolicy,
)
from repro.scheduler.queues import Requester, RequesterList
from repro.sim import Tracer
from repro.util.stats import Ewma

__all__ = ["Grant", "TMProxy"]


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
        directory: DirectoryShard,
        scheduler: SchedulerPolicy,
        tracer: Optional[Tracer] = None,
        fallback_exec_estimate: float = 0.05,
        winner_policy: WinnerPolicy = WinnerPolicy.HOLDER_WINS,
        conflict_scope: str = "root",
        rpc_policy: Optional[Any] = None,
        metrics: Optional[Any] = None,
        rpc_client: Optional[RpcClient] = None,
    ) -> None:
        self.node = node
        self.env = node.env
        self.directory = directory
        self.scheduler = scheduler
        self.tracer = tracer or Tracer()
        #: the typed caller side of the RPC substrate.  Built here from
        #: the legacy knobs when the cluster does not supply one, so
        #: directly-constructed proxies (tests) keep working unchanged.
        if rpc_client is None:
            rpc_client = RpcClient(
                node, policy=rpc_policy, tracer=self.tracer, metrics=metrics
            )
        self.rpc_client = rpc_client
        #: timeout/retry policy for RPCs (:class:`repro.rpc.RetryPolicy`);
        #: None (fault-free build) keeps every RPC a plain blocking wait.
        self.rpc_policy = rpc_client.policy
        #: the cluster metrics collector, for fault counters (optional)
        self.metrics = metrics
        self.fallback_exec_estimate = float(fallback_exec_estimate)
        self.winner_policy = WinnerPolicy(winner_policy)
        if conflict_scope not in ("root", "level", "mixed"):
            raise ValueError(
                f"conflict_scope must be 'root', 'level' or 'mixed', got {conflict_scope!r}"
            )
        #: who a lost busy-object conflict kills.  "mixed" (default, the
        #: closed-nesting model of the paper's TFA baseline [24]):
        #: execution-phase copy fetches abort only the requesting nested
        #: level, while commit-phase acquisitions abort the whole parent —
        #: those are the "losing parent transactions" RTS schedules.
        #: "root"/"level" force one victim for every conflict (ablations).
        self.conflict_scope = conflict_scope
        #: lazily-aborted transactions (greedy-timestamp ablation)
        self.doomed = DoomRegistry()
        #: runtime invariant sanitizer (repro.check); set by the cluster
        #: when CheckConfig.sanitize is on, else every hook stays a
        #: one-guard no-op
        self.sanitizer = None
        #: payload plane (repro.rpc.payload): this node's resolved-bytes
        #: cache, set via :meth:`enable_payload` when
        #: ``PayloadConfig.enabled``; None keeps every hook a one-guard
        #: no-op and the timeline byte-identical
        self.payload = None
        scheduler.bind(node.node_id)

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
        #: requester-side enqueue outcomes (diagnostics + tests)
        self.enqueue_wins = 0
        self.enqueue_expiries = 0
        #: enqueue-wait reporting hook (repro.check.explore's
        #: bounded-enqueue-time property): called once per completed
        #: hand-off wait with (root txid, oid, budget, waited, won).
        #: None (the default) keeps the wait path on a one-guard no-op.
        self.enqueue_observer: Optional[
            Callable[[str, str, float, float, bool], None]
        ] = None
        #: how many times an expired waiter re-requests before aborting
        self.rerequest_limit = 8
        #: fault recovery: the last ownership transfer we granted, per
        #: oid — (requester node, requester root txid, response payload,
        #: grant time).  A transferred grant deletes our copy before the
        #: response hits the wire; if that response is dropped the copy
        #: exists nowhere.  The same requester's RPC retry is answered
        #: from this cache (idempotent re-grant); the orphan sweep
        #: repatriates entries old enough that the requester must have
        #: given up.  Cleared when the object comes back.
        self._granted: Dict[str, Tuple[int, str, Dict[str, Any], float]] = {}

        node.on(MessageType.RETRIEVE_REQUEST, self._on_retrieve_request)
        node.on(MessageType.OBJECT_HANDOFF, self._on_object_handoff)
        # Fire-and-forget ownership registrations still produce acks from
        # the directory shard; absorb the ones no RPC waiter claims.
        node.on(MessageType.DIR_UPDATE_ACK, lambda _msg: None)
        # Fault recovery: a retrieve response that arrives after its RPC
        # timed out may carry an ownership transfer — state that must not
        # be lost (see _on_late_retrieve_response).
        node.on(MessageType.RETRIEVE_RESPONSE, self._on_late_retrieve_response)
        # Heartbeat acks report which of our copies went stale.
        node.on(MessageType.LEASE_RENEW_ACK, self._on_lease_ack)

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

    def enable_payload(self, node_payload: Any) -> None:
        """Attach this node's payload-plane cache and start serving
        ``PAYLOAD_FETCH`` (cluster bootstrap, payload plane on only)."""
        self.payload = node_payload
        self.node.on(MessageType.PAYLOAD_FETCH, self._on_payload_fetch)

    def _grant_wire_bytes(self, oid: str) -> int:
        """Bytes a value-carrying grant/hand-off for ``oid`` ships."""
        pp = self.payload
        return 0 if pp is None else pp.plane.grant_bytes(oid)

    # ------------------------------------------------------------------
    # Payload plane (repro.rpc.payload): lazy byte resolution
    # ------------------------------------------------------------------

    def resolve_payload(self, grant: Grant) -> Generator[Any, Any, None]:
        """Materialise the bytes behind ``grant`` at this node
        (generator; ``yield from``).

        Proxy mode only — eager mode shipped the bytes with the grant.
        The resolved-bytes cache is keyed by the version fence, so a hit
        costs nothing and a fence bump (any committed write) misses by
        construction.  A miss fetches from the grant's advertised
        factory, falling back once to the plane's current source; if
        both refuse (the fence moved mid-flight) or the factory is
        unreachable under faults, the read proceeds without bytes — the
        semantic value is already in hand, and commit-time validation
        arbitrates staleness exactly as before.
        """
        pp = self.payload
        if pp is None or not pp.plane.proxy_mode:
            return
        oid, version = grant.oid, grant.version
        hit = pp.lookup(oid, version)
        if self.tracer.wants("payload.fetch"):
            self.tracer.emit(
                self.env.now, "payload.fetch", oid,
                node=f"n{self.node.node_id}", hit=hit,
                bytes=0 if hit else pp.plane.size_of(oid),
            )
        if hit:
            return
        src = grant.psrc if grant.psrc is not None else pp.plane.source.get(oid)
        if src is None or src == self.node.node_id:
            # We are the factory (we committed these bytes, or the grant
            # predates the plane's bookkeeping): materialise locally.
            pp.install(oid, version)
            return
        ok = yield from self._fetch_payload(oid, version, src)
        if not ok:
            alt = pp.plane.source.get(oid)
            if alt is not None and alt not in (src, self.node.node_id):
                yield from self._fetch_payload(oid, version, alt)

    def _fetch_payload(
        self, oid: str, version: int, src: int
    ) -> Generator[Any, Any, bool]:
        pp = self.payload
        pp.fetches += 1
        try:
            reply = yield from self.rpc(
                src, MessageType.PAYLOAD_FETCH,
                {"oid": oid, "version": version},
            )
        except OwnerUnreachable:
            return False
        p = reply.payload
        if p.get("ok"):
            pp.install(oid, int(p["version"]))
            return True
        return False

    def _on_payload_fetch(self, msg: Message) -> None:
        """Serve bytes for ``(oid, version)`` from this node's resolved
        store.  Serves only at the exact requested fence — bytes for any
        other fence would be stale (or fabricated) the moment they land."""
        p = msg.payload
        oid: str = p["oid"]
        want = int(p["version"])
        pp = self.payload
        have = pp.cache_version(oid)
        if have == want:
            if self.sanitizer is not None:
                self.sanitizer.check_payload_serve(
                    oid, want, node=self.node.node_id, now=self.env.now
                )
            pp.served += 1
            pp.plane.fetch_bytes += pp.plane.size_of(oid)
            self.node.reply(
                msg, MessageType.PAYLOAD_FETCH_REPLY,
                {"oid": oid, "ok": True, "version": want},
                wire_bytes=pp.plane.size_of(oid),
            )
        else:
            pp.refused += 1
            self.node.reply(
                msg, MessageType.PAYLOAD_FETCH_REPLY,
                {"oid": oid, "ok": False, "version": have},
            )

    # ------------------------------------------------------------------
    # RPC with timeout/retry (fault recovery)
    # ------------------------------------------------------------------

    def rpc(
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, Message]:
        """A proxy RPC (returns a generator; ``yield from``).

        Delegates to the node's :class:`~repro.rpc.RpcClient` — the
        substrate owns the tracing/metrics and (via
        :meth:`~repro.net.node.Node.request`) the single retry loop.
        Without a policy (fault-free build) the call is a plain blocking
        wait, no timeout events — the client's generator, returned as
        is; with one, a peer silent through every growing-timeout
        attempt surfaces as :class:`~repro.dstm.errors.OwnerUnreachable`.
        A type no endpoint requests with is a :class:`TransactionError`,
        raised here.
        """
        endpoint = ENDPOINTS.for_request(mtype)
        if endpoint is None:
            raise TransactionError(
                f"no endpoint registered for {getattr(mtype, 'value', mtype)}"
            )
        if self.rpc_policy is None:
            return self.rpc_client.call(dst, endpoint, payload)
        return self._rpc_under_policy(dst, endpoint, payload)

    def _rpc_under_policy(
        self, dst: int, endpoint: Endpoint, payload: Optional[Dict[str, Any]]
    ) -> Generator[Any, Any, Message]:
        try:
            reply = yield from self.rpc_client.call(dst, endpoint, payload)
        except OwnerUnreachable:
            raise
        except PeerUnreachable as exc:
            raise OwnerUnreachable(exc.dst, exc.what, exc.attempts) from None
        return reply

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
        expiries = 0
        try:
            grant = yield from self._open_object_chase(
                tx, root, oid, mode, ets, chase_pause, expiries
            )
            if span_on:
                self.tracer.emit(
                    self.env.now, "span.phase", tx.txid,
                    phase="open", edge="E", oid=oid,
                )
            return grant
        except OwnerUnreachable as exc:
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
        expiries: int,
    ) -> Generator[Any, Any, Grant]:
        for hop in range(256):
            owner = self.owner_hints.lookup(oid)
            if self.tracer.wants("rpc.cache"):
                self.tracer.emit(
                    self.env.now, "rpc.cache", oid,
                    node=f"n{self.node.node_id}", hit=owner is not None,
                )
            if owner is None:
                owner = yield from self._lookup_owner(oid)
            reply = yield from self.rpc(
                owner,
                MessageType.RETRIEVE_REQUEST,
                {
                    "oid": oid,
                    "txid": root.task_id,
                    "mode": mode.value,
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
                    self.enqueue_expiries += 1
                    if expiries <= self.rerequest_limit:
                        continue
                    raise TransactionAborted(
                        self._conflict_victim(tx, mode), AbortReason.BACKOFF_EXPIRED,
                        oid=oid, detail=f"backoff {budget:.4f}s expired",
                    )
                self.enqueue_wins += 1
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
            root.profile, self.fallback_exec_estimate
        )
        return ETS(
            start=root.start_local_time,
            request=now,
            expected_commit=root.start_local_time + expected,
        )

    def _lookup_owner(self, oid: str) -> Generator[Any, Any, int]:
        home = home_node(oid, self.node.network.num_nodes)
        reply = yield from self.rpc(home, MessageType.DIR_LOOKUP, {"oid": oid})
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
        self._granted.pop(oid, None)
        obj = VersionedObject(oid, payload["value"], int(payload["version"]))
        if self.payload is not None:
            if self.payload.plane.proxy_mode:
                # Ownership migrated; the bytes did not.  Keep pointing
                # at the factory until a commit materializes new bytes
                # here.
                psrc = payload.get("psrc")
                obj.payload_src = int(psrc) if psrc is not None else None
            else:
                # Eager mode: the payload rode this transfer inline.
                obj.payload_src = self.node.node_id
                self.payload.plane.note_materialize(
                    self.node.node_id, oid, obj.version
                )
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
        now = self.node.now_local

        obj = self.store.get(oid)
        if obj is None:
            cached = self._granted.get(oid)
            if cached is not None and cached[0] == msg.src and cached[1] == root_txid:
                # The requester we transferred the object to is asking
                # again: the response carrying the single writable copy
                # was lost.  Re-send it (idempotent — the requester
                # drops duplicates of a transfer it already absorbed),
                # and refresh the grant age: the requester is alive, so
                # the orphan sweep must not repatriate under it.
                self._granted[oid] = (cached[0], cached[1], cached[2], self.env.now)
                self.node.reply(
                    msg, MessageType.RETRIEVE_RESPONSE, dict(cached[2]),
                    wire_bytes=self._grant_wire_bytes(oid),
                )
                return
            self.node.reply(
                msg, MessageType.RETRIEVE_RESPONSE,
                {
                    "oid": oid, "granted": False, "not_owner": True,
                    "owner_hint": self.owner_hints.get(oid),
                },
            )
            return

        self.scheduler.on_request(oid, root_txid, now)
        local_cl = self._local_cl(oid)

        # Re-grant to the holder itself (same root re-opening its object).
        if obj.state is not ObjectState.FREE and obj.holder == root_txid:
            self._grant(msg, obj, mode, transferred=False, local_cl=local_cl)
            return

        if obj.state is ObjectState.FREE:
            if mode.is_copy:
                # Committed snapshot; ownership unchanged.  TFA serves
                # copies optimistically — the requester validates later.
                self._grant(msg, obj, mode, transferred=False, local_cl=local_cl)
            else:
                # Commit-time acquisition of a free object: migrate the
                # single writable copy to the committing node.
                self._grant(msg, obj, mode, transferred=True, local_cl=local_cl)
            return

        # ---- conflict: the object is being validated by another commit ----

        # Same-node requests never enter distributed contention
        # management: a local thread simply blocks on the proxy's object
        # lock until the validation window closes (microseconds of local
        # waiting in the real system).  The paper's scheduled conflicts
        # are the *remote* ones, priced in round trips.
        if msg.src == self.node.node_id:
            queue = self.queues.get(oid)
            if queue is None:
                queue = RequesterList()
                self.queues[oid] = queue
            queue.remove_duplicate(root_txid)
            s, r, c = p["ets"]
            queue.add_requester(
                1,
                Requester(
                    node=msg.src, txid=root_txid, mode=mode,
                    ets=ETS(s, r, c), enqueued_at=now, local_wait=True,
                ),
            )
            if self.tracer.wants("sched.decision"):
                self.tracer.emit(
                    self.env.now, "sched.decision", oid,
                    node=f"n{self.node.node_id}", txid=root_txid,
                    action="local_wait", cause="local",
                    cl=queue.get_contention(), threshold=0,
                    bk=queue.bk, elapsed=r - s, backoff=0.0,
                )
            if self.tracer.wants("obs.queue"):
                self._trace_queue(oid)
            self.node.reply(
                msg, MessageType.RETRIEVE_RESPONSE,
                {
                    "oid": oid, "granted": False, "enqueued": True,
                    "backoff": None, "local_cl": local_cl,
                },
            )
            return

        # Contention manager (ablation): an older requester may doom the
        # younger validating holder, which then aborts lazily.
        if (
            self.winner_policy is WinnerPolicy.GREEDY_TIMESTAMP
            and obj.holder is not None
        ):
            requester_start = p["ets"][0]
            holder_start = self._holder_start.get(oid, float("-inf"))
            if requester_start < holder_start:
                self.doomed.doom(obj.holder)

        # ---- conflict: delegate to the scheduler ----
        queue = self.queues.get(oid)
        if queue is None:
            queue = RequesterList()
            self.queues[oid] = queue
        was_duplicate = queue.remove_duplicate(root_txid)
        s, r, c = p["ets"]
        ctx = ConflictContext(
            oid=oid,
            obj=obj,
            mode=mode,
            requester_node=msg.src,
            requester_txid=root_txid,
            requester_cl=int(p.get("my_cl", 0)),
            ets=ETS(s, r, c),
            queue=queue,
            now_local=now,
            holder_remaining=self._holder_remaining(oid),
            was_duplicate=was_duplicate,
        )
        decision = self.scheduler.on_conflict(ctx)
        if self.scheduler.decision_observer is not None:
            self.scheduler.decision_observer(ctx, decision)
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
        if decision.kind is DecisionKind.ENQUEUE:
            if self.tracer.wants("obs.queue"):
                self._trace_queue(oid)
            self.node.reply(
                msg, MessageType.RETRIEVE_RESPONSE,
                {
                    "oid": oid, "granted": False, "enqueued": True,
                    "backoff": decision.backoff, "local_cl": local_cl,
                },
            )
        else:
            self.node.reply(
                msg, MessageType.RETRIEVE_RESPONSE,
                {
                    "oid": oid, "granted": False, "enqueued": False,
                    "backoff": 0.0, "local_cl": local_cl,
                },
            )

    def _grant(
        self,
        msg: Message,
        obj: VersionedObject,
        mode: ObjectMode,
        transferred: bool,
        local_cl: int,
    ) -> None:
        payload: Dict[str, Any] = {
            "oid": obj.oid,
            "granted": True,
            "value": obj.value,
            "version": obj.version,
            "local_cl": local_cl,
            "served_by": self.node.node_id,
        }
        if self.payload is not None and self.payload.plane.proxy_mode:
            # Control-plane proxy: advertise the byte factory instead of
            # shipping the payload (the semantic value above is protocol
            # metadata; the bulk bytes resolve lazily at the reader).
            payload["psrc"] = obj.payload_src
        if transferred:
            payload["transferred"] = True
            queue = self.queues.pop(obj.oid, None)
            if queue is not None and len(queue):
                payload["queue"] = queue.snapshot()
                payload["bk"] = queue.bk
            del self.store[obj.oid]
            self._hold_started.pop(obj.oid, None)
            self.owner_hints[obj.oid] = msg.src
            if self.rpc_policy is not None:
                # The copy now exists only in this response; remember it
                # so the requester's retry can be answered if the
                # response is dropped.
                self._granted[obj.oid] = (
                    msg.src, msg.payload["txid"], dict(payload), self.env.now
                )
        self.node.reply(
            msg, MessageType.RETRIEVE_RESPONSE, payload,
            wire_bytes=self._grant_wire_bytes(obj.oid),
        )

    def _local_cl(self, oid: str) -> int:
        """Transactions currently wanting ``oid`` here: the queue, plus
        the validator occupying it.  This is what grants piggyback so
        requesters can maintain myCL at the paper's scale (§III-B's
        worked example uses values of 1-2)."""
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
            self._send_handoff(requester, obj, transferred=False)

        acquirer = queue.pop_next_acquirer()
        if acquirer is None:
            queue.reset_backlog()
            if queue_trace:
                self._trace_queue(oid)
            return
        # Ownership migrates to the first queued committer; the remaining
        # queue (and its backlog) travels with the object.
        remaining = queue.snapshot()
        bk = queue.bk
        del self.queues[oid]
        del self.store[oid]
        self.owner_hints[oid] = acquirer.node
        handoff = {
            "oid": oid, "txid": acquirer.txid, "mode": acquirer.mode.value,
            "granted": True, "transferred": True,
            "value": obj.value, "version": obj.version,
            "queue": remaining, "bk": bk,
            "local_cl": len(remaining),
            "served_by": self.node.node_id,
            "owner_clock": self.node.clock.tfa_clock,
        }
        if self.payload is not None and self.payload.plane.proxy_mode:
            handoff["psrc"] = obj.payload_src
        if self.rpc_policy is not None:
            # Same in-flight hazard as a transferred grant: if this
            # hand-off is dropped, the acquirer's re-request (its backoff
            # expires with no object) is served from the cache.
            self._granted[oid] = (
                acquirer.node, acquirer.txid, dict(handoff), self.env.now
            )
        self.node.send(
            acquirer.node, MessageType.OBJECT_HANDOFF, handoff,
            wire_bytes=self._grant_wire_bytes(oid),
        )
        if queue_trace:
            # The queue (and backlog) just migrated away with the object.
            self._trace_queue(oid)

    def _send_handoff(self, requester: Requester, obj: VersionedObject, transferred: bool) -> None:
        payload: Dict[str, Any] = {
            "oid": obj.oid, "txid": requester.txid,
            "mode": requester.mode.value,
            "granted": True, "transferred": transferred,
            "value": obj.value, "version": obj.version,
            "local_cl": 0,
            "served_by": self.node.node_id,
            "owner_clock": self.node.clock.tfa_clock,
        }
        if self.payload is not None and self.payload.plane.proxy_mode:
            payload["psrc"] = obj.payload_src
        self.node.send(
            requester.node, MessageType.OBJECT_HANDOFF, payload,
            wire_bytes=self._grant_wire_bytes(obj.oid),
        )

    # ------------------------------------------------------------------
    # Requester side: hand-off arrival (Algorithm 4)
    # ------------------------------------------------------------------

    def _on_object_handoff(self, msg: Message) -> None:
        p = msg.payload
        oid: str = p["oid"]
        txid: str = p["txid"]
        p.setdefault("owner_clock", msg.clock)
        key = (txid, oid)
        waiter = self._waiters.pop(key, None)

        if waiter is not None and not waiter.triggered:
            if p.get("transferred"):
                self._install_transferred(oid, p, holder=txid)
                # The install is done; hand the waiter a payload that will
                # not trigger a second install in _absorb_grant.
                p = dict(p, transferred=False)
            waiter.succeed(p)
            return

        # Algorithm 4's else-branch: nobody here needs the object any more.
        if p.get("transferred"):
            if oid in self.store:
                # Duplicate of a hand-off we already absorbed (fault
                # injection): the transfer happened once; drop the echo.
                return
            # We *are* the owner now (the queue shipped with the object);
            # forward straight to the next queued requester.
            self._install_transferred(oid, p, holder=None)
            self.release_object(oid, committed=False)
        # A read hand-off with no waiter is simply dropped: shared
        # snapshots carry no state.

    # ------------------------------------------------------------------
    # Fault recovery (repro.faults)
    # ------------------------------------------------------------------

    def _on_late_retrieve_response(self, msg: Message) -> None:
        """A RETRIEVE_RESPONSE whose RPC waiter is gone (timed out, or a
        duplicate of one already consumed).

        Snapshot grants and rejections are stale information and are
        dropped.  A *transfer* grant, however, carries the single
        writable copy — losing it would orphan the object until lease
        reclaim — so we absorb the ownership and immediately release,
        serving any queue that travelled with it.
        """
        p = msg.payload
        if not p.get("granted") or not p.get("transferred"):
            return
        oid = p["oid"]
        if oid in self.store:
            return  # duplicate of a transfer we already absorbed
        self._install_transferred(oid, p, holder=None)
        self.release_object(oid, committed=False)

    def _on_lease_ack(self, msg: Message) -> None:
        """Heartbeat ack: the home says some of our copies are stale
        (a lease reclaim or competing commit advanced past them)."""
        for oid in msg.payload.get("stale", ()):
            obj = self.store.get(oid)
            if obj is None or obj.state is not ObjectState.FREE:
                # Held copies are left to the version fence: the commit
                # that holds them will be nacked and discard them itself.
                continue
            self.discard_object(oid)

    def discard_object(self, oid: str) -> None:
        """Drop a stale owned copy (fault recovery only)."""
        self.store.pop(oid, None)
        self.queues.pop(oid, None)
        self._hold_started.pop(oid, None)
        self._holder_start.pop(oid, None)
        if self.owner_hints.get(oid) == self.node.node_id:
            self.owner_hints.pop(oid, None)

    def publish_commit(
        self, oid: str, version: int, value: Any
    ) -> Generator[Any, Any, None]:
        """Sync a freshly committed ``(version, value)`` to the home's
        recovery snapshot (generator process; fault mode only)."""
        home = home_node(oid, self.node.network.num_nodes)
        try:
            yield from self.rpc(
                home, MessageType.COMMIT_PUBLISH,
                {"oid": oid, "version": int(version), "value": value},
            )
        except OwnerUnreachable:
            # The home is unreachable; the periodic heartbeat will carry
            # the same state as soon as it answers again.
            pass

    def lease_heartbeat(
        self, interval: float, offset: float = 0.0
    ) -> Generator[Any, Any, None]:
        """Infinite heartbeat process: renew leases on every owned object.

        Fire-and-forget (the LEASE_RENEW_ACK handler absorbs answers), so
        a crashed or partitioned home costs nothing; ``offset`` staggers
        the per-node phases to avoid synchronized bursts.
        """
        if offset > 0.0:
            yield self.env.timeout(offset)
        num = self.node.network.num_nodes
        while True:
            by_home: Dict[int, List[Tuple[str, int, Any]]] = {}
            for oid in sorted(self.store):
                obj = self.store[oid]
                by_home.setdefault(home_node(oid, num), []).append(
                    (oid, obj.version, obj.value)
                )
            for home, objects in sorted(by_home.items()):
                if home == self.node.node_id:
                    continue  # our own directory sees our copies directly
                self.node.send(home, MessageType.LEASE_RENEW, {"objects": objects})
            yield self.env.timeout(interval)

    def orphan_sweep(
        self,
        interval: float,
        min_age: Optional[float] = None,
        offset: float = 0.0,
    ) -> Generator[Any, Any, None]:
        """Infinite sweep process: repatriate abandoned transferred copies.

        A transferred grant whose response was lost leaves the single
        writable copy existing only in this node's :attr:`_granted` cache.
        Normally the requester's RPC retries pick it up; if the requester
        gave up (its root aborted with ``OWNER_FAILURE``) or crashed, the
        copy is orphaned — unreachable until the home's lease reclaim
        re-hosts it from a possibly older snapshot.  The sweep returns
        such copies to the home (``ORPHAN_RETURN``) *before* lease expiry,
        so the object comes back under its latest committed value.

        ``min_age`` gates repatriation: an entry younger than it may still
        be claimed by the requester's in-flight retries.  The default is
        the RPC policy's worst-case retry wait — by then the requester has
        provably given up (or will be served by the home's fenced copy).
        """
        pol = self.rpc_policy
        if min_age is None:
            min_age = pol.worst_case_wait() if pol is not None else interval
        if offset > 0.0:
            yield self.env.timeout(offset)
        while True:
            yield self.env.timeout(interval)
            yield from self._sweep_orphans(min_age)

    def _sweep_orphans(self, min_age: float) -> Generator[Any, Any, None]:
        now = self.env.now
        for oid in sorted(self._granted):
            entry = self._granted.get(oid)
            if entry is None:
                continue
            requester, _txid, payload, granted_at = entry
            if now - granted_at < min_age:
                continue
            if oid in self.store:
                # The object came home through another path (late
                # hand-off forwarding); the grant cache is just stale.
                self._granted.pop(oid, None)
                continue
            home = home_node(oid, self.node.network.num_nodes)
            try:
                reply = yield from self.rpc(
                    home, MessageType.ORPHAN_RETURN,
                    {
                        "oid": oid,
                        "version": int(payload["version"]),
                        "value": payload["value"],
                        "granted_to": requester,
                    },
                )
            except OwnerUnreachable:
                continue  # silent home: retry on the next sweep
            p = reply.payload
            if p.get("accepted") or p.get("fenced"):
                # Accepted: the home re-hosted the copy under a fenced
                # version.  Fenced: the registry already moved past this
                # grant (the requester registered after all, or a reclaim
                # won).  Either way re-granting from the cache would
                # resurrect a stale copy — drop it, unless a newer grant
                # replaced the entry while this RPC was in flight.
                current = self._granted.get(oid)
                if current is not None and current[3] == granted_at:
                    self._granted.pop(oid, None)
                if self.owner_hints.get(oid) == requester:
                    self.owner_hints.pop(oid, None)

    # ------------------------------------------------------------------
    # Introspection / invariants (tests lean on these)
    # ------------------------------------------------------------------

    def owns(self, oid: str) -> bool:
        return oid in self.store

    def object_state(self, oid: str) -> Optional[ObjectState]:
        obj = self.store.get(oid)
        return obj.state if obj is not None else None

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
