"""Simulated message-passing network over a metric space.

The paper's system model (§II): nodes communicate over message-passing
links; the analysis (§III-D) assumes a symmetric network of N nodes in a
metric space with distance ``d(n_i, n_j)``; the evaluation (§IV-A) fixes
per-link communication delays between 1 and 50 ms to create a *static*
network.  This package realises exactly that:

* :mod:`repro.net.topology` — node placement in a metric space and the
  static delay matrix derived from it,
* :mod:`repro.net.network` — the transport: reliable, per-link-FIFO
  message delivery after the link's delay,
* :mod:`repro.net.clocks` — asynchronous per-node clocks (bounded skew and
  drift) — the clock environment TFA is designed for,
* :mod:`repro.net.message` — typed message envelopes,
* :mod:`repro.net.node` — the node runtime that dispatches inbound
  messages to registered handlers and hosts request/reply plumbing.
"""

from repro.net.clocks import NodeClock
from repro.net.message import Message, MessageType
from repro.net.network import Network
from repro.net.node import Node
from repro.net.topology import Topology

__all__ = [
    "Message",
    "MessageType",
    "Network",
    "Node",
    "NodeClock",
    "Topology",
]
