"""Typed request/response endpoints over the raw message plane.

An :class:`Endpoint` names one RPC of the D-STM protocol stack and pins
its wire shape: the request :class:`~repro.net.message.MessageType`, the
reply type the caller's correlation-id dispatch waits on, and the payload
keys a request must carry.  The :data:`ENDPOINTS` registry is the single
catalogue of every RPC in the system — callers address endpoints by name
(``client.call(dst, "dir_lookup", ...)``), servers bind handlers with
:func:`serve`, and both sides get the same cheap shape validation.

One-way messages (hand-offs, heartbeat-style fire-and-forget) are
endpoints with ``reply=None``: they participate in the registry and in
payload validation, but :meth:`~repro.rpc.client.RpcClient.call` refuses
them (use :meth:`~repro.net.node.Node.send`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.net.message import Message, MessageType
from repro.rpc.errors import EndpointError

__all__ = ["ENDPOINTS", "Endpoint", "EndpointRegistry", "serve"]


@dataclass(frozen=True)
class Endpoint:
    """One typed RPC: request/reply message types plus payload shape."""

    name: str
    request: MessageType
    #: None marks a one-way (fire-and-forget) endpoint
    reply: Optional[MessageType]
    #: payload keys every request must carry (checked by the client)
    required: Tuple[str, ...] = ()

    @property
    def is_rpc(self) -> bool:
        return self.reply is not None

    def check_request(self, payload: Optional[dict]) -> None:
        """Raise :class:`EndpointError` on a malformed request payload."""
        have = payload if payload else ()
        for key in self.required:
            if key not in have:
                missing = [k for k in self.required if k not in have]
                raise EndpointError(
                    f"endpoint {self.name}: request payload missing {missing}"
                )


class EndpointRegistry:
    """Name -> :class:`Endpoint` catalogue (one endpoint per request type)."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Endpoint] = {}
        self._by_request: Dict[MessageType, Endpoint] = {}

    def add(self, endpoint: Endpoint) -> Endpoint:
        if endpoint.name in self._by_name:
            raise ValueError(f"endpoint {endpoint.name!r} already registered")
        if endpoint.request in self._by_request:
            raise ValueError(
                f"request type {endpoint.request.value} already bound to "
                f"endpoint {self._by_request[endpoint.request].name!r}"
            )
        self._by_name[endpoint.name] = endpoint
        self._by_request[endpoint.request] = endpoint
        return endpoint

    def get(self, name: str) -> Endpoint:
        try:
            return self._by_name[name]
        except KeyError:
            raise EndpointError(
                f"unknown endpoint {name!r}; known: {sorted(self._by_name)}"
            ) from None

    def __iter__(self) -> Iterator[Endpoint]:
        return iter(self._by_name.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)


#: the protocol stack's endpoint catalogue
ENDPOINTS = EndpointRegistry()

for _ep in (
    # Cache-coherence / directory protocol
    Endpoint("dir_lookup", MessageType.DIR_LOOKUP,
             MessageType.DIR_LOOKUP_REPLY, required=("oid",)),
    Endpoint("dir_update", MessageType.DIR_UPDATE,
             MessageType.DIR_UPDATE_ACK, required=("oid", "owner")),
    # Object access (paper Algorithms 2-4)
    Endpoint("retrieve", MessageType.RETRIEVE_REQUEST,
             MessageType.RETRIEVE_RESPONSE,
             required=("oid", "txid", "mode", "ets")),
    Endpoint("handoff", MessageType.OBJECT_HANDOFF, None,
             required=("oid", "txid")),
    # Commit protocol
    Endpoint("read_validate", MessageType.READ_VALIDATE,
             MessageType.READ_VALIDATE_REPLY, required=("oid", "version")),
    Endpoint("commit_publish", MessageType.COMMIT_PUBLISH,
             MessageType.COMMIT_PUBLISH_ACK, required=("oid", "version")),
    # Failure recovery (repro.faults)
    Endpoint("lease_renew", MessageType.LEASE_RENEW,
             MessageType.LEASE_RENEW_ACK, required=("objects",)),
    Endpoint("orphan_return", MessageType.ORPHAN_RETURN,
             MessageType.ORPHAN_RETURN_ACK,
             required=("oid", "version", "value")),
    # Payload plane (repro.rpc.payload): lazy out-of-band byte resolve
    Endpoint("payload_fetch", MessageType.PAYLOAD_FETCH,
             MessageType.PAYLOAD_FETCH_REPLY, required=("oid", "version")),
    # Generic
    Endpoint("ping", MessageType.PING, MessageType.PONG),
):
    ENDPOINTS.add(_ep)
del _ep


def serve(
    node: "Node",  # noqa: F821  (repro.net.node.Node; avoids import cycle)
    name: str,
    fn: Callable[[Message], Optional[dict]],
) -> Endpoint:
    """Bind ``fn`` as the server side of endpoint ``name`` on ``node``.

    ``fn`` receives the request :class:`Message` and returns the reply
    payload dict (sent back as the endpoint's reply type) or None to
    withhold the reply (the caller's deadline machinery then governs).
    The node's dispatch sends the reply itself (``Node.on``'s ``reply``),
    so no wrapper frame sits between a request and ``fn``.  One-way
    endpoints never reply: their ``fn`` is a plain handler.
    """
    endpoint = ENDPOINTS.get(name)
    node.on(endpoint.request, fn, reply=endpoint.reply)
    return endpoint
