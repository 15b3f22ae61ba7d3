"""repro.rpc — the typed RPC substrate over the simulated message plane.

Unifies what grew ad hoc across the stack into small pieces:

* :class:`RetryPolicy` — the single deadline/retry/backoff policy object;
* :class:`Endpoint` / :data:`ENDPOINTS` / :func:`serve` — the typed
  request/response catalogue of every RPC in the D-STM protocol;
* :class:`RpcClient` — the caller side: endpoint typing + the one retry
  path (the resend chain on :meth:`repro.net.node.Node.submit`'s reply
  signal) + the fan-out join + shared tracing and metrics;
* :class:`LookupCache` — a node's version-fenced directory lookup
  cache; the node's TM proxy owns it.

Two opt-in planes are not re-exported here, so a default run never
loads them: :class:`repro.rpc.batch.PiggybackBatcher` (per-link send
coalescing, window > 0 only) and :mod:`repro.rpc.payload` (the payload
plane, ``payload.enabled`` only).  Import them from their modules.

Everything here is strictly additive: with ``RpcConfig()`` defaults
(no batching window, hint-mode cache, no policy) a same-seed run is
event-for-event identical to the pre-rpc build — pinned by
``tests/rpc/test_equivalence.py``.
"""

from repro.rpc.cache import LookupCache
from repro.rpc.client import RpcClient
from repro.rpc.endpoint import ENDPOINTS, Endpoint, EndpointRegistry, serve
from repro.rpc.errors import EndpointError, PeerUnreachable
from repro.rpc.policy import RetryPolicy

__all__ = [
    "ENDPOINTS",
    "Endpoint",
    "EndpointError",
    "EndpointRegistry",
    "LookupCache",
    "PeerUnreachable",
    "RetryPolicy",
    "RpcClient",
    "serve",
]
