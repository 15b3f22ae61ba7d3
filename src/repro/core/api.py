"""The transaction-facing API: handles and retry runners.

Workload code receives a :class:`TransactionHandle` and performs::

    def transfer(tx, src, dst, amount):
        balance = yield from tx.read(src)
        yield from tx.write(src, balance - amount)
        ...
        result = yield from tx.nested(audit_leg, dst)   # closed-nested child

Everything that can block on simulated communication is a generator, so
bodies compose with ``yield from``.  Retry policy:

* the **root runner** (:func:`run_root`) catches aborts whose victim is
  the root, rolls back, consults the scheduler for a stall
  (:meth:`~repro.scheduler.base.SchedulerPolicy.retry_backoff`) and
  re-runs the body — with a *stable task id*, so the protocol recognises
  the retry as the same logical transaction (queue duplicate removal);
* the **nested runner** (inside :meth:`TransactionHandle.nested`) catches
  aborts whose victim is its own child and retries just that child —
  the closed-nesting payoff; aborts of an ancestor propagate up.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

from repro.core.cluster import Cluster
from repro.core.config import SchedulerKind
from repro.dstm.errors import AbortReason, TransactionAborted, TransactionError
from repro.dstm.tfa import OP_LOCAL_TIME, TFAEngine
from repro.dstm.transaction import NestingModel, Transaction, TxStatus

__all__ = [
    "Cluster",
    "SchedulerKind",
    "TransactionHandle",
    "run_root",
]

class TransactionHandle:
    """What a transaction body sees.  Wraps (engine, transaction-level)."""

    __slots__ = ("_engine", "_tx")

    def __init__(self, engine: TFAEngine, tx: Transaction) -> None:
        self._engine = engine
        self._tx = tx

    # -- raw accessors ----------------------------------------------------------

    @property
    def transaction(self) -> Transaction:
        return self._tx

    @property
    def txid(self) -> str:
        return self._tx.txid

    @property
    def depth(self) -> int:
        return self._tx.depth

    # -- operations ---------------------------------------------------------------

    def read(self, oid: str) -> Generator[Any, Any, Any]:
        """Transactional read of ``oid`` (``yield from``)."""
        return self._engine.read(self._tx, oid)

    def write(self, oid: str, value: Any) -> Generator[Any, Any, None]:
        """Transactional write of ``oid`` (``yield from``)."""
        return self._engine.write(self._tx, oid, value)

    def compute(self, duration: float) -> Generator[Any, Any, None]:
        """Spend local CPU time inside the transaction."""
        return self._engine.compute(self._tx, duration)

    def abort(self, detail: str = "") -> None:
        """Programmatic abort of the *enclosing root* transaction."""
        raise TransactionAborted(
            self._tx.root, AbortReason.USER_ABORT, detail=detail
        )

    def retry_nested(self, detail: str = "") -> None:
        """Programmatic abort-and-retry of the *current nested* level."""
        raise TransactionAborted(self._tx, AbortReason.USER_ABORT, detail=detail)

    # -- nesting --------------------------------------------------------------------

    def nested(
        self,
        body: Callable[..., Generator],
        *args: Any,
        profile: Optional[str] = None,
        max_retries: Optional[int] = None,
    ) -> Generator[Any, Any, Any]:
        """Run ``body`` as a closed-nested child transaction.

        The child is retried on its own aborts (``max_retries`` >= 0
        bounds that, None = unbounded); ancestor aborts propagate.
        Returns the body's return value once the child merges into this
        level.  A failed attempt is detached from this level and its own
        subtree dismantled (:meth:`Transaction.dismantle`), so it is
        freed by reference counting, not left to the cyclic collector.
        """
        if max_retries is not None and max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        engine = self._engine
        parent = self._tx
        if engine.nesting is NestingModel.FLAT:
            # Flat nesting inlines the child into the enclosing
            # transaction: no separate transaction, no partial abort —
            # the body simply runs against this level.
            result = yield from body(self, *args)
            return result
        child_profile = profile or f"{parent.profile}.nested"
        if max_retries is None:
            # Fault mode installs a default cap so a child whose read
            # set can never validate (a registry wedged by lost
            # messages) escalates to the root instead of spinning.
            max_retries = engine.nested_retry_cap
        tracer = engine.proxy.tracer
        node_tag = ""
        retries = 0
        while True:
            if parent.status is not TxStatus.LIVE:
                raise TransactionError(
                    f"{parent.txid}: nested() on a {parent.status.value} parent"
                )
            child = engine.begin(profile=child_profile, parent=parent)
            handle = TransactionHandle(engine, child)
            span_on = tracer.enabled and tracer.wants("span.begin")
            if span_on:
                node_tag = f"n{engine.node.node_id}"
                tracer.emit(
                    engine.env.now, "span.begin", child.txid,
                    task=child.task_id, node=node_tag, attempt=retries,
                    profile=child_profile, depth=child.depth,
                    parent=parent.txid,
                )
            try:
                result = yield from body(handle, *args)
                yield from engine.commit_nested(child)
                if span_on:
                    tracer.emit(
                        engine.env.now, "span.end", child.txid,
                        task=child.task_id, node=node_tag, outcome="commit",
                        depth=child.depth,
                    )
                return result
            except TransactionAborted as abort:
                own = abort.victim is child
                if own:
                    engine.abort_nested(child, abort.reason)
                if span_on:
                    tracer.emit(
                        engine.env.now, "span.end", child.txid,
                        task=child.task_id, node=node_tag, outcome="abort",
                        reason=abort.reason.value, oid=abort.oid or "",
                        depth=child.depth,
                    )
                if not own:
                    # An ancestor (or the root) is the victim: let the
                    # matching frame handle it.  The child dies with it;
                    # accounting happens in the ancestor's abort.
                    raise
                # Detach the dead attempt so unbounded retries cannot grow
                # the parent's children list (and with it, memory), and
                # unlink its own subtree: a detached child still forms a
                # cycle with its children.
                parent.children.remove(child)
                child.dismantle()
                retries += 1
                stall = engine.proxy.scheduler.retry_backoff(
                    child.root, abort.reason, retries
                )
                # Restart is never free: at minimum the begin/rollback
                # bookkeeping costs one local operation, which also keeps
                # simulated time advancing on zero-backoff retry storms.
                yield max(stall, OP_LOCAL_TIME)
                if max_retries is not None and retries > max_retries:
                    # Escalate: give up on the child, abort the root.
                    raise TransactionAborted(
                        parent.root, abort.reason,
                        detail=f"nested {child.txid} exceeded {max_retries} retries",
                        oid=abort.oid,
                    ) from abort


def run_root(
    cluster: Cluster,
    engine: TFAEngine,
    body: Callable[..., Generator],
    args: Tuple[Any, ...],
    profile: str = "default",
    max_attempts: Optional[int] = None,
    task_id: Optional[str] = None,
    info: Optional[dict] = None,
) -> Generator[Any, Any, Any]:
    """Atomic-block retry loop for a root transaction (generator).

    Returns the body's return value after a successful commit.  Raises
    :class:`TransactionAborted` only when ``max_attempts`` (>= 1; None =
    unbounded) is exhausted.
    When ``info`` is given, commit metadata (txid, attempts,
    serialized_at) is written into it — the serializability oracle keys
    its replay order on ``serialized_at``.

    Every attempt ends by dismantling its tree
    (:meth:`Transaction.dismantle`), on the commit exit and on the abort
    exit before any re-raise: a finished tree then holds no reference
    cycle, and reference counting frees it as soon as its last holder
    lets go (DESIGN.md §3, "Memory: no cycles on the transaction path").
    """
    if max_attempts is not None and max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    env = engine.env
    node_id = engine.node.node_id
    if task_id is None:
        task_id = cluster.new_task_id(node_id)
    tracer = engine.proxy.tracer
    attempt = 0
    while True:
        root = engine.begin(profile=profile, task_id=task_id)
        handle = TransactionHandle(engine, root)
        span_on = tracer.enabled and tracer.wants("span.begin")
        if span_on:
            tracer.emit(
                env.now, "span.begin", root.txid,
                task=task_id, node=f"n{node_id}", attempt=attempt,
                profile=profile, depth=0,
            )
        try:
            result = yield from body(handle, *args)
            yield from engine.commit_root(root)
            if span_on:
                tracer.emit(
                    env.now, "span.end", root.txid,
                    task=task_id, node=f"n{node_id}", outcome="commit",
                    depth=0,
                )
            if info is not None:
                info["txid"] = root.txid
                info["attempts"] = attempt + 1
                info["serialized_at"] = root.serialized_at
            root.dismantle()
            return result
        except TransactionAborted as abort:
            if abort.victim.root is not root:
                raise TransactionError(
                    f"abort of {abort.victim.txid} escaped to foreign root {root.txid}"
                ) from abort
            engine.abort_root(root, abort.reason, oid=abort.oid)
            root.dismantle()
            if span_on:
                tracer.emit(
                    env.now, "span.end", root.txid,
                    task=task_id, node=f"n{node_id}", outcome="abort",
                    reason=abort.reason.value, oid=abort.oid or "",
                    depth=0,
                )
            if abort.reason is AbortReason.USER_ABORT:
                # Programmatic cancellation rolls back and propagates —
                # retrying what the application deliberately gave up on
                # would loop forever.
                raise
            attempt += 1
            if max_attempts is not None and attempt >= max_attempts:
                raise
            stall = engine.proxy.scheduler.retry_backoff(root, abort.reason, attempt)
            # A restart is never free: the framework pays its rollback
            # overhead (config.abort_overhead) before the body re-runs,
            # which also keeps zero-backoff retry storms off the
            # same-timestamp fast path.
            yield max(stall, engine.abort_overhead, OP_LOCAL_TIME)
