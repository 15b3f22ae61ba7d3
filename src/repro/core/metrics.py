"""Experiment metrics: throughput, abort accounting, Table-I inputs.

One collector per cluster; it hooks every node engine's commit/abort
callbacks.  Abort accounting follows the paper's taxonomy:

* **root aborts** by :class:`~repro.dstm.errors.AbortReason`;
* **nested aborts** split by cause — ``own`` (the nested transaction's own
  validation/conflict failure) vs ``parent`` (it died, live or already
  committed, because an ancestor aborted).  Table I's reported quantity is
  ``parent / (own + parent)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dstm.errors import AbortReason
from repro.dstm.transaction import Transaction
from repro.sim import Counter, Tally

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Aggregates per-cluster transactional statistics."""

    def __init__(self) -> None:
        self.commits = Counter("commits")
        self.root_aborts = Counter("root_aborts")
        self.aborts_by_reason: Dict[AbortReason, int] = {}
        #: nested aborts caused by the nested transaction itself
        self.nested_aborts_own = Counter("nested_aborts_own")
        #: nested aborts caused by an ancestor's abort (incl. committed
        #: children rolled back with their parent)
        self.nested_aborts_parent = Counter("nested_aborts_parent")
        self.nested_commits = Counter("nested_commits")
        self.commit_latency = Tally("commit_latency")
        self.per_profile_commits: Dict[str, int] = {}
        #: window bounds for throughput computation (simulated seconds)
        self.window_start: float = 0.0
        self.window_end: float = 0.0
        #: fault-injection counters (repro.faults); all stay 0 fault-free
        self.fault_drops = Counter("fault_drops")
        self.fault_duplicates = Counter("fault_duplicates")
        self.rpc_timeouts = Counter("rpc_timeouts")
        self.rpc_retries = Counter("rpc_retries")
        self.lease_reclaims = Counter("lease_reclaims")
        #: root aborts caused by an unreachable owner/home (OWNER_FAILURE)
        self.crash_aborts = Counter("crash_aborts")

    # -- engine hooks ------------------------------------------------------------

    def on_commit(self, root: Transaction, duration: float) -> None:
        self.commits.increment()
        self.commit_latency.observe(duration)
        self.per_profile_commits[root.profile] = (
            self.per_profile_commits.get(root.profile, 0) + 1
        )
        # Committed nested transactions that survive to the root commit.
        self.nested_commits.increment(self._count_descendants(root))

    def on_abort(
        self,
        victim: Transaction,
        reason: AbortReason,
        killed: List[Transaction],
    ) -> None:
        if victim.is_root:
            self.root_aborts.increment()
            self.aborts_by_reason[reason] = self.aborts_by_reason.get(reason, 0) + 1
            if reason is AbortReason.OWNER_FAILURE:
                self.crash_aborts.increment()
        for tx in killed:
            if tx.is_root:
                continue
            if tx is victim:
                self.nested_aborts_own.increment()
            else:
                self.nested_aborts_parent.increment()

    # -- derived quantities ------------------------------------------------------------

    @staticmethod
    def _count_descendants(root: Transaction) -> int:
        count = 0
        stack = list(root.children)
        while stack:
            tx = stack.pop()
            count += 1
            stack.extend(tx.children)
        return count

    @property
    def total_nested_aborts(self) -> int:
        return self.nested_aborts_own.value + self.nested_aborts_parent.value

    def nested_abort_rate(self) -> float:
        """Table I's metric: parent-caused nested aborts / all nested aborts."""
        total = self.total_nested_aborts
        if total == 0:
            return 0.0
        return self.nested_aborts_parent.value / total

    def abort_ratio(self) -> float:
        """Root aborts per root attempt (commit + abort)."""
        attempts = self.commits.value + self.root_aborts.value
        return self.root_aborts.value / attempts if attempts else 0.0

    def throughput(self, elapsed: Optional[float] = None) -> float:
        """Committed root transactions per simulated second."""
        if elapsed is None:
            elapsed = self.window_end - self.window_start
        return self.commits.value / elapsed if elapsed > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        out = {
            "commits": float(self.commits.value),
            "root_aborts": float(self.root_aborts.value),
            "abort_ratio": self.abort_ratio(),
            "nested_aborts_own": float(self.nested_aborts_own.value),
            "nested_aborts_parent": float(self.nested_aborts_parent.value),
            "nested_abort_rate": self.nested_abort_rate(),
            "mean_commit_latency": self.commit_latency.mean,
            "fault_drops": float(self.fault_drops.value),
            "fault_duplicates": float(self.fault_duplicates.value),
            "rpc_timeouts": float(self.rpc_timeouts.value),
            "rpc_retries": float(self.rpc_retries.value),
            "lease_reclaims": float(self.lease_reclaims.value),
            "crash_aborts": float(self.crash_aborts.value),
        }
        if self.window_end - self.window_start > 0:
            out["throughput"] = self.throughput()
        return out

    def __repr__(self) -> str:
        return (
            f"<Metrics commits={self.commits.value} aborts={self.root_aborts.value} "
            f"nested_rate={self.nested_abort_rate():.3f}>"
        )
