"""The typed caller side of the RPC substrate.

:class:`RpcClient` is what protocol layers hold instead of hand-rolled
``node.request`` loops: it resolves an :class:`~repro.rpc.endpoint.Endpoint`
by name, validates the request payload shape, delegates the deadline /
retry machinery to :meth:`repro.net.node.Node.request` under the bound
:class:`~repro.rpc.policy.RetryPolicy` (the stack's single retry loop),
and owns the cross-cutting concerns every call shares: ``rpc.issue`` /
``rpc.done`` / ``fault.rpc_retry`` tracing and the cluster metrics
counters.  A peer silent through every attempt surfaces as
:class:`~repro.rpc.errors.PeerUnreachable`.

The client also carries the node's :class:`~repro.rpc.cache.LookupCache`
so every layer on the node (proxy opens, TFA validation, fault-recovery
reclaim) folds ownership observations into the *same* cache.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Union

from repro.net.message import Message, MessageType
from repro.net.node import Node, RpcError
from repro.rpc.cache import LookupCache
from repro.rpc.endpoint import ENDPOINTS, Endpoint
from repro.rpc.errors import EndpointError, PeerUnreachable
from repro.rpc.policy import RetryPolicy
from repro.sim import Event, Tracer

__all__ = ["RpcClient"]


class RpcClient:
    """Typed RPC calls from one node, under one policy, into one cache."""

    def __init__(
        self,
        node: Node,
        policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Any] = None,
        cache: Optional[LookupCache] = None,
    ) -> None:
        self.node = node
        self.env = node.env
        #: None (fault-free build): calls are plain blocking waits with no
        #: timeout events — the legacy behaviour, byte-identical same-seed.
        self.policy = policy
        self.tracer = tracer or Tracer()
        self.metrics = metrics
        self.cache = cache if cache is not None else LookupCache()
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
        :class:`PeerUnreachable` when the policy's attempts are exhausted.
        The call is admitted here, where it is written; the request is
        sent when the generator is first resumed.
        """
        mtype = self._admit(endpoint, payload)
        if self.policy is None:
            return self._await(dst, mtype, payload)
        return self._call(dst, mtype, payload)

    def submit(
        self,
        dst: int,
        endpoint: Union[Endpoint, str],
        payload: Optional[Dict[str, Any]] = None,
    ) -> Event:
        """Issue ``endpoint`` at ``dst`` without blocking: returns the
        reply event (:meth:`~repro.net.node.Node.submit`), which *is* the
        call — fan-outs join on it with ``env.all_of``.

        Refused under a :class:`RetryPolicy`: a retry needs the loop in
        :meth:`call`.
        """
        if self.policy is not None:
            raise EndpointError(
                "submit() cannot retry; a client with a RetryPolicy must "
                "use call()"
            )
        return self._issue(dst, self._admit(endpoint, payload), payload)

    def _await(
        self, dst: int, mtype: MessageType, payload: Optional[Dict[str, Any]]
    ) -> Generator[Any, Any, Message]:
        """The policy-free :meth:`call`: :meth:`submit`'s issue step on
        the first resume, then one ``yield`` on its reply event."""
        reply = yield self._issue(dst, mtype, payload)
        return reply

    def _issue(
        self, dst: int, mtype: MessageType, payload: Optional[Dict[str, Any]]
    ) -> Event:
        """Send one admitted request and return its reply event.  Traced,
        ``rpc.issue`` is emitted at the send and ``rpc.done`` from a
        callback put on the reply event ahead of whoever waits on it —
        the one place the policy-free pair is written."""
        tracer = self.tracer
        if not (tracer.enabled and tracer.wants("rpc.issue")):
            return self.node.submit(dst, mtype, payload)
        node = f"n{self.node.node_id}"
        tracer.emit(self.env.now, "rpc.issue", mtype.value, node=node, dst=dst)
        reply = self.node.submit(dst, mtype, payload)

        def done(_reply: Event) -> None:
            tracer.emit(
                self.env.now, "rpc.done", mtype.value,
                node=node, dst=dst, ok=True, retries=0,
            )

        reply.callbacks.append(done)
        return reply

    def _call(
        self, dst: int, mtype: MessageType, payload: Optional[Dict[str, Any]]
    ) -> Generator[Any, Any, Message]:
        """:meth:`call` under a policy: retry accounting and tracing
        around the loop in :meth:`~repro.net.node.Node.request`."""
        rpc_trace = self.tracer.wants("rpc.issue")
        if rpc_trace:
            self.tracer.emit(
                self.env.now, "rpc.issue", mtype.value,
                node=f"n{self.node.node_id}", dst=dst,
            )
        pol = self.policy
        retries_used = 0

        def note_timeout(attempt: int, window: float, will_retry: bool) -> None:
            nonlocal retries_used
            if self.metrics is not None:
                self.metrics.rpc_timeouts.increment()
            if will_retry:
                retries_used = attempt + 1
                if self.metrics is not None:
                    self.metrics.rpc_retries.increment()
                if self.tracer.wants("fault.rpc_retry"):
                    self.tracer.emit(
                        self.env.now, "fault.rpc_retry", mtype.value,
                        dst=dst, attempt=attempt + 1, window=window,
                    )

        try:
            reply = yield from self.node.request(
                dst, mtype, payload, policy=pol, on_timeout=note_timeout
            )
        except RpcError:
            self.failures += 1
            if rpc_trace:
                self.tracer.emit(
                    self.env.now, "rpc.done", mtype.value,
                    node=f"n{self.node.node_id}", dst=dst, ok=False,
                    retries=pol.max_retries,
                )
            raise PeerUnreachable(dst, mtype.value, pol.attempts) from None
        if rpc_trace:
            self.tracer.emit(
                self.env.now, "rpc.done", mtype.value,
                node=f"n{self.node.node_id}", dst=dst, ok=True,
                retries=retries_used,
            )
        return reply

    def __repr__(self) -> str:
        return (
            f"<RpcClient n{self.node.node_id} calls={self.calls} "
            f"failures={self.failures} policy={self.policy}>"
        )
