"""Deterministic fault injection and failure recovery (``repro.faults``).

The subsystem has two halves:

* **injection** — :class:`FaultPlan` turns a
  :class:`~repro.core.config.FaultConfig` plus the dedicated ``"faults"``
  RNG stream into a concrete fault timeline (crash windows, partition
  windows, per-message fates); :class:`FaultInjector` installs that plan
  onto a :class:`~repro.net.network.Network`, deciding each message's
  fate at send time and vetoing delivery to crashed nodes;
* **recovery** — :class:`RpcPolicy` (an alias of
  :class:`repro.rpc.RetryPolicy`, the stack's single retry/backoff
  policy object) parameterises the RPC substrate's timeout/retry loop;
  the home's lease/reclaim machinery lives in
  :class:`~repro.dstm.directory.DirectoryShard`; the owner's side — the
  re-grant memory, the late-response and lease-ack handlers, the
  heartbeat, commit-publish and orphan-sweep processes — is one
  :class:`NodeRecovery` per node (:mod:`repro.faults.recovery`), which
  the cluster builds only when ``faults.enabled``.

Everything is driven from config-seeded RNG streams: identical seeds
produce identical fault timelines and therefore bit-identical runs.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashWindow, FaultPlan, MessageFate, PartitionWindow
from repro.faults.recovery import NodeRecovery, RpcPolicy

__all__ = [
    "CrashWindow",
    "FaultInjector",
    "FaultPlan",
    "MessageFate",
    "NodeRecovery",
    "PartitionWindow",
    "RpcPolicy",
]
