"""The typed caller side of the RPC substrate.

:class:`RpcClient` is what protocol layers hold instead of hand-rolled
message plumbing: it resolves an :class:`~repro.rpc.endpoint.Endpoint`
by name, validates the request payload shape, and issues the request
through :meth:`repro.net.node.Node.submit` under the bound
:class:`~repro.rpc.policy.RetryPolicy` — a call is its reply signal
(:class:`~repro.sim.Signal`: one call entry wakes its one consumer, no
Event) with or without a policy; under one, ``Node.submit``'s resend
chain (the stack's one retry path) drives that signal.  A fan-out waits
on :meth:`RpcClient.join`, one counting join over its legs' signals.
The client owns the cross-cutting concerns every call shares:
``rpc.issue`` / ``rpc.done`` / ``fault.rpc_retry`` tracing and the
cluster metrics counters.  A peer silent through every attempt resolves
the signal with ``None``, which :meth:`RpcClient.call` raises as
:class:`~repro.rpc.errors.PeerUnreachable`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Union

from repro.net.message import Message, MessageType
from repro.net.node import Node
from repro.rpc.endpoint import ENDPOINTS, Endpoint
from repro.rpc.errors import EndpointError, PeerUnreachable
from repro.rpc.policy import RetryPolicy
from repro.sim import Signal, Tracer

__all__ = ["RpcClient"]


class RpcClient:
    """Typed RPC calls from one node, under one policy."""

    def __init__(
        self,
        node: Node,
        policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.node = node
        self.env = node.env
        #: None (fault-free build): calls are plain blocking waits with no
        #: timeout events — the legacy behaviour, byte-identical same-seed.
        self.policy = policy
        self.tracer = tracer or Tracer()
        self.metrics = metrics
        #: host-side call counters (feed the obs report)
        self.calls = 0
        self.failures = 0

    def _admit(
        self, endpoint: Union[Endpoint, str], payload: Optional[Dict[str, Any]]
    ) -> MessageType:
        """Resolve, shape-check and count one call; returns its request
        type.  Raises :class:`EndpointError` before anything is sent."""
        if endpoint.__class__ is str:
            endpoint = ENDPOINTS.get(endpoint)
        if endpoint.reply is None:
            raise EndpointError(
                f"endpoint {endpoint.name!r} is one-way; use Node.send, "
                "not call()"
            )
        have = payload if payload else ()
        for key in endpoint.required:
            if key not in have:
                endpoint.check_request(payload)  # raises, naming every missing key
        self.calls += 1
        return endpoint.request

    def call(
        self,
        dst: int,
        endpoint: Union[Endpoint, str],
        payload: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, Message]:
        """Issue ``endpoint`` (or its name) at ``dst``; blocking — the
        returned generator is for ``yield from``.

        Returns the reply :class:`~repro.net.message.Message`; raises
        :class:`PeerUnreachable` when the policy's attempts are exhausted
        (the reply signal resolved ``None``).  The call is admitted here,
        where it is written; the request is sent when the generator is
        first resumed.
        """
        return self._join(dst, self._admit(endpoint, payload), payload)

    def submit(
        self,
        dst: int,
        endpoint: Union[Endpoint, str],
        payload: Optional[Dict[str, Any]] = None,
    ) -> Signal:
        """Issue ``endpoint`` at ``dst`` without blocking: returns the
        reply signal (:meth:`~repro.net.node.Node.submit`), which *is* the
        call — fan-outs wait on :meth:`join` over such signals.

        Under a :class:`RetryPolicy` the signal resolves with the reply
        or, once every attempt's window has expired, with ``None``; it
        never fails, so a join waits for every outcome.
        """
        mtype = self._admit(endpoint, payload)
        if self.policy is None and not self.tracer.enabled:
            return self.node.submit(dst, mtype, payload)  # as in _join
        return self._issue(dst, mtype, payload)

    def post(
        self, dst: int, endpoint: Endpoint, payload: Dict[str, Any]
    ) -> None:
        """Issue a call nobody waits on (a withdraw, a commit publish).

        Without a policy it is the one-way ``Node.send`` of the request —
        not admitted, not counted, its reply left to the handlers.  Under
        one it is :meth:`submit`'s resend chain with no joiner, so a lost
        request or reply is retried like any other call's.
        """
        if self.policy is None:
            self.node.send(dst, endpoint.request, payload)
        else:
            self.submit(dst, endpoint, payload)

    def _join(
        self, dst: int, mtype: MessageType, payload: Optional[Dict[str, Any]]
    ) -> Generator[Any, Any, Message]:
        """:meth:`call`'s generator: :meth:`submit`'s issue step on the
        first resume, then one ``yield`` on its reply signal.  With no
        policy and the tracer off there is nothing for :meth:`_issue` to
        add, so — here and in :meth:`submit` — the request goes straight
        to ``Node.submit``."""
        if self.policy is None and not self.tracer.enabled:
            reply = yield self.node.submit(dst, mtype, payload)
        else:
            reply = yield self._issue(dst, mtype, payload)
        if reply is None:
            raise PeerUnreachable(dst, mtype.value, self.policy.attempts)
        return reply

    def _issue(
        self, dst: int, mtype: MessageType, payload: Optional[Dict[str, Any]]
    ) -> Signal:
        """Send one admitted request and return its reply signal.

        Traced, ``rpc.issue`` is emitted at the send and ``rpc.done`` from
        the reply signal's tap, ahead of whoever consumes it — the one
        place the pair is written.  Under a policy the expired
        windows are counted here (``rpc_timeouts``, ``rpc_retries``,
        ``failures``) and traced as ``fault.rpc_retry``.
        """
        tracer = self.tracer
        traced = tracer.enabled and tracer.wants("rpc.issue")
        policy = self.policy
        if policy is None and not traced:
            return self.node.submit(dst, mtype, payload)
        node = f"n{self.node.node_id}"
        if traced:
            tracer.emit(self.env.now, "rpc.issue", mtype.value, node=node, dst=dst)
        retries = 0

        def expired(attempt: int, window: float, will_retry: bool) -> None:
            nonlocal retries
            metrics = self.metrics
            if metrics is not None:
                metrics.rpc_timeouts.increment()
            if not will_retry:
                self.failures += 1
                retries = policy.max_retries
                return
            retries = attempt + 1
            if metrics is not None:
                metrics.rpc_retries.increment()
            if tracer.wants("fault.rpc_retry"):
                tracer.emit(
                    self.env.now, "fault.rpc_retry", mtype.value,
                    dst=dst, attempt=attempt + 1, window=window,
                )

        reply = self.node.submit(dst, mtype, payload, policy, expired)
        if traced:

            def done(value: Optional[Message]) -> None:
                tracer.emit(
                    self.env.now, "rpc.done", mtype.value, node=node,
                    dst=dst, ok=value is not None, retries=retries,
                )

            reply.tap = done
        return reply

    def join(
        self,
        calls: List[Signal],
        fold: Callable[[Optional[Message]], None],
    ) -> Signal:
        """One counting join over a fan-out's reply signals: the signal a
        process yields to wait for every call's outcome.

        Each call's reply (a :class:`Message`, or ``None`` from a call
        whose every window expired) goes to ``fold`` in the call entry it
        lands in; the last one fires the join, whose own call entry
        resumes the waiter.  A leg that lands in a reply's delivery is
        that entry's last act, so it fires the join with
        :meth:`Signal.deliver <repro.sim.events.Signal.deliver>`; a leg
        whose reply had landed already runs here, inside the caller's
        step, and pushes.  A join over no calls fires at once.
        """
        joined = Signal(self.env, self.node.rpc_name)
        pending = len(calls)
        if not pending:
            joined.succeed()
            return joined
        at_tail = False

        def leg(reply: Optional[Message]) -> None:
            nonlocal pending
            fold(reply)
            pending -= 1
            if not pending:
                if at_tail:
                    joined.deliver()
                else:
                    joined.succeed()

        for call in calls:
            call.then(leg)
        at_tail = True
        return joined

    def __repr__(self) -> str:
        return (
            f"<RpcClient n{self.node.node_id} calls={self.calls} "
            f"failures={self.failures} policy={self.policy}>"
        )
