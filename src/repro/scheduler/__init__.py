"""Transactional schedulers: the paper's contribution and its baselines.

* :class:`~repro.scheduler.rts.RtsScheduler` — the Reactive Transactional
  Scheduler (§III): decides, per losing *parent* transaction, between
  abort and enqueue-with-backoff, using the contention level (CL) and the
  transaction's elapsed execution time; maintains the per-object
  ``scheduling_List`` and per-object backlog ``bk``.
* :class:`~repro.scheduler.tfa_baseline.TfaScheduler` — plain TFA: abort
  the loser, retry immediately ("TFA" in §IV).
* :class:`~repro.scheduler.backoff.BackoffScheduler` — TFA plus randomised
  exponential backoff before retry ("TFA+Backoff" in §IV).

Support modules: :mod:`~repro.scheduler.queues` (requester lists) and
:mod:`~repro.scheduler.adaptive` (the adaptive CL-threshold controller).
The per-profile commit-latency EWMA that is the ETS expected-commit
estimate is :attr:`SchedulerPolicy.stats`.  ``Cluster._make_scheduler``
builds one policy per node from the cluster config.
"""

from repro.scheduler.base import (
    ConflictContext,
    ConflictDecision,
    DecisionKind,
    SchedulerPolicy,
)
from repro.scheduler.backoff import BackoffScheduler
from repro.scheduler.rts import RtsScheduler
from repro.scheduler.tfa_baseline import TfaScheduler

__all__ = [
    "BackoffScheduler",
    "ConflictContext",
    "ConflictDecision",
    "DecisionKind",
    "RtsScheduler",
    "SchedulerPolicy",
    "TfaScheduler",
]

