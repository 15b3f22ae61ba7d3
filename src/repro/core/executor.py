"""The workload executor: drives open-ended transaction streams.

The paper's evaluation runs a fixed population of concurrent transactions
per node against a benchmark's shared objects.  The executor reproduces
that: ``workers_per_node`` worker processes per node, each repeatedly
drawing an operation from the workload's mix and running it through the
atomic runner.  Two stop conditions are supported (and composable):

* ``horizon`` — run for a fixed span of simulated time (used for the
  throughput figures; throughput = commits / horizon);
* ``stop_after_commits`` — run until the cluster has committed N root
  transactions (used for Table I's "ten thousand transactions").
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.api import run_root
from repro.core.cluster import Cluster
from repro.core.metrics import MetricsCollector
from repro.dstm.errors import AbortReason, TransactionAborted
from repro.workloads.base import Workload

__all__ = ["WorkloadExecutor"]


class WorkloadExecutor:
    """Runs a workload on a cluster and reports through cluster metrics."""

    def __init__(
        self,
        cluster: Cluster,
        workload: Workload,
        workers_per_node: int = 2,
        horizon: Optional[float] = None,
        stop_after_commits: Optional[int] = None,
        max_attempts_per_tx: Optional[int] = 64,
    ) -> None:
        if horizon is None and stop_after_commits is None:
            raise ValueError("need a stop condition: horizon or stop_after_commits")
        if workers_per_node < 1:
            raise ValueError(f"workers_per_node must be >= 1, got {workers_per_node}")
        self.cluster = cluster
        self.workload = workload
        self.workers_per_node = workers_per_node
        self.horizon = horizon
        self.stop_after_commits = stop_after_commits
        self.max_attempts_per_tx = max_attempts_per_tx
        self._stop = False
        #: transactions abandoned after max_attempts_per_tx (safety valve;
        #: should stay at/near zero in healthy runs)
        self.abandoned = 0
        #: when enabled, every committed operation is recorded as
        #: (commit_time, sequence, Op, result) — the serializability
        #: oracle replays this log in commit order
        self.log_ops = False
        self.op_log: list = []
        self._op_seq = 0

    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Create the workload's shared objects (before any simulation)."""
        self.workload.setup(self.cluster, self.cluster.rngs.stream("workload.setup"))

    def _should_stop(self) -> bool:
        if self._stop:
            return True
        if (
            self.stop_after_commits is not None
            and self.cluster.metrics.commits.value >= self.stop_after_commits
        ):
            self._stop = True
        return self._stop

    def _worker(self, node: int, worker_idx: int) -> Generator[Any, Any, None]:
        cluster = self.cluster
        env = cluster.env
        engine = cluster.engines[node]
        rng = cluster.rngs.stream(f"worker[{node}][{worker_idx}]")
        while not self._should_stop():
            op = self.workload.make_op(node, rng)
            try:
                info: dict = {}
                result = yield from run_root(
                    cluster, engine, op.body, op.args,
                    profile=op.profile,
                    max_attempts=self.max_attempts_per_tx,
                    info=info,
                )
                if self.log_ops:
                    self._op_seq += 1
                    self.op_log.append(
                        (info["serialized_at"], self._op_seq, op, result)
                    )
            except TransactionAborted as abort:
                # Programmatic aborts (e.g. "sold out" in Vacation) are a
                # normal workload outcome; anything else means a
                # transaction burned through max_attempts_per_tx.
                if abort.reason is not AbortReason.USER_ABORT:
                    self.abandoned += 1

    # ------------------------------------------------------------------

    def run(self) -> "WorkloadExecutor":
        """Execute to the stop condition; returns self for chaining."""
        cluster = self.cluster
        env = cluster.env
        cluster.metrics.window_start = env.now
        procs = []
        for node in range(cluster.num_nodes):
            for w in range(self.workers_per_node):
                procs.append(
                    env.process(self._worker(node, w), name=f"worker[{node}][{w}]")
                )
        if self.horizon is not None:
            env.run(until=env.now + self.horizon)
            self._stop = True
            # Drain in-flight transactions so no process is left mid-commit.
            env.run(until=env.all_of(procs))
        else:
            env.run(until=env.all_of(procs))
        cluster.metrics.window_end = env.now
        return self

    @property
    def metrics(self) -> MetricsCollector:
        return self.cluster.metrics

    def throughput(self) -> float:
        """Commits per simulated second over the measured window."""
        if self.horizon is not None:
            return self.cluster.metrics.commits.value / self.horizon
        return self.cluster.metrics.throughput()
