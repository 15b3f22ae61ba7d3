"""Deterministic fault injection and failure recovery (``repro.faults``).

The subsystem has two halves:

* **injection** — :class:`FaultPlan` turns a
  :class:`~repro.core.config.FaultConfig` plus the dedicated ``"faults"``
  RNG stream into a concrete fault timeline (crash windows, partition
  windows, per-message fates) and is the network's one fault seam:
  installed onto a :class:`~repro.net.network.Network`, it decides each
  message's fate at send time and vetoes delivery to crashed nodes;
* **recovery** — one :class:`repro.rpc.RetryPolicy` (the stack's single
  retry/backoff policy class), :data:`~repro.faults.recovery.RETRY_POLICY`,
  drives the RPC substrate's timeout/retry loop;
  :mod:`repro.faults.recovery` holds it with the rest of the protocol's
  timing constants, and both sides of bringing a lost copy
  back, which the cluster builds only when ``faults.enabled``: the
  home's side — leases, the lease reclaim, the ``DIR_UPDATE`` fences —
  is one :class:`HomeRecovery` per directory shard, the owner's side —
  the re-grant memory, the late-response and lease-ack handlers, the
  commit publish and the heartbeat process — one :class:`NodeRecovery`
  per node.

Everything is driven from config-seeded RNG streams: identical seeds
produce identical fault timelines and therefore bit-identical runs.
"""

from repro.faults.plan import CrashWindow, FaultPlan, PartitionWindow
from repro.faults.recovery import HomeRecovery, NodeRecovery

__all__ = [
    "CrashWindow",
    "FaultPlan",
    "HomeRecovery",
    "NodeRecovery",
    "PartitionWindow",
]
