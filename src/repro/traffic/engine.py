"""The open-loop executor: arrival-driven transaction injection.

The closed-loop :class:`~repro.core.executor.WorkloadExecutor` runs a
fixed worker population — offered load adapts to service rate and the
system can never be pushed past saturation.  This executor replaces the
worker pool's *demand* side with an arrival plane:

* one arrival process per node (seeded streams ``traffic.arrivals[n]``
  / ``traffic.ops[n]``) injects transactions open-loop at the configured
  rate, split evenly across nodes;
* arrivals land in bounded per-node :class:`~repro.traffic.admission.
  AdmissionQueue`\\ s; a full queue sheds the arrival;
* ``service_workers`` dispatcher processes per node drain the queue
  through the normal atomic runner (scheduler, TFA, faults and RPC all
  unchanged — the traffic plane composes with every existing layer);
* a :class:`~repro.traffic.stability.StabilityMonitor` integrates queue
  depth into windows, and the run ends with a ``stable: true/false``
  verdict plus arrival/latency accounting in the experiment extras.

Latency here is the *sojourn* time — arrival to commit, queueing
included — which is the number an SLO cares about and the one
closed-loop runs cannot measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.core.api import run_root
from repro.dstm.errors import AbortReason, TransactionAborted
from repro.sim.monitor import Tally
from repro.traffic.admission import AdmissionQueue
from repro.traffic.popularity import PopularityModel
from repro.traffic.stability import StabilityMonitor, stability_verdict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cluster import Cluster
    from repro.core.config import ArrivalConfig
    from repro.core.metrics import MetricsCollector
    from repro.workloads.base import Workload

__all__ = ["OpenLoopExecutor"]

#: stability-detector integration window (simulated seconds)
STABILITY_WINDOW = 1.0


class OpenLoopExecutor:
    """Runs a workload under an open-loop arrival process."""

    def __init__(
        self,
        cluster: "Cluster",
        workload: "Workload",
        arrival: "ArrivalConfig",
        service_workers: int = 2,
        horizon: Optional[float] = 20.0,
        max_attempts_per_tx: Optional[int] = 64,
    ) -> None:
        if horizon is None or horizon <= 0:
            raise ValueError("open-loop runs need a positive horizon")
        if service_workers < 1:
            raise ValueError(f"service_workers must be >= 1, got {service_workers}")
        self.cluster = cluster
        self.workload = workload
        self.arrival = arrival
        self.service_workers = service_workers
        self.horizon = float(horizon)
        self.max_attempts_per_tx = max_attempts_per_tx

        self.popularity: Optional[PopularityModel] = None
        if arrival.zipf_s > 0:
            self.popularity = PopularityModel(s=arrival.zipf_s)

        self.queues: List[AdmissionQueue] = []
        self.monitor: Optional[StabilityMonitor] = None
        self.abandoned = 0
        self.backlog = 0
        #: arrival→commit sojourn latency (queueing included)
        self.latency = Tally("traffic.latency", keep_samples=True)
        self._stop = False
        self._t_end = 0.0

    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Create shared objects and install the popularity model."""
        cluster = self.cluster
        self.workload.setup(cluster, cluster.rngs.stream("workload.setup"))
        if self.popularity is not None:
            self.workload.popularity = self.popularity

    # -- simulation processes --------------------------------------------

    def _arrivals(self, node: int) -> Generator[Any, Any, None]:
        cluster = self.cluster
        env = cluster.env
        rng = cluster.rngs.stream(f"traffic.arrivals[{node}]")
        op_rng = cluster.rngs.stream(f"traffic.ops[{node}]")
        mean_interval = 1.0 / (self.arrival.rate / cluster.num_nodes)
        tracer = cluster.tracer
        queue = self.queues[node]
        while True:
            yield float(rng.exponential(mean_interval))
            if self._stop or env.now >= self._t_end:
                return
            op = self.workload.make_op(node, op_rng)
            admitted = queue.offer((env.now, op))
            if tracer.wants("traffic.arrival"):
                tracer.emit(
                    env.now, "traffic.arrival", f"n{node}",
                    node=f"n{node}", admitted=admitted,
                )

    def _dispatcher(self, node: int, worker_idx: int) -> Generator[Any, Any, None]:
        cluster = self.cluster
        env = cluster.env
        engine = cluster.engines[node]
        queue = self.queues[node]
        tracer = cluster.tracer
        while True:
            item = yield from queue.get()
            if item is None:
                return
            arrived_at, op = item
            # Mint the task id here (the same id run_root would have
            # minted) so the dispatch event can link the admission-queue
            # wait to the span chain for latency anatomy.
            task_id = cluster.new_task_id(node)
            if tracer.wants("traffic.dispatch"):
                tracer.emit(
                    env.now, "traffic.dispatch", task_id,
                    node=f"n{node}", arrived=arrived_at,
                    waited=env.now - arrived_at,
                )
            try:
                yield from run_root(
                    cluster, engine, op.body, op.args,
                    profile=op.profile,
                    max_attempts=self.max_attempts_per_tx,
                    task_id=task_id,
                )
                self.latency.observe(env.now - arrived_at)
            except TransactionAborted as abort:
                if abort.reason is not AbortReason.USER_ABORT:
                    self.abandoned += 1

    # ------------------------------------------------------------------

    def run(self) -> "OpenLoopExecutor":
        """Arrivals for ``horizon`` seconds, then drain in-flight work."""
        cluster = self.cluster
        env = cluster.env
        self._t_end = env.now + self.horizon
        cluster.metrics.window_start = env.now

        self.queues = [
            AdmissionQueue(
                env, node, self.arrival.queue_capacity, tracer=cluster.tracer
            )
            for node in range(cluster.num_nodes)
        ]
        self.monitor = StabilityMonitor(env, self.queues, STABILITY_WINDOW)
        env.process(self.monitor.run(), name="traffic.monitor")
        for node in range(cluster.num_nodes):
            env.process(self._arrivals(node), name=f"traffic.arrivals[{node}]")
        dispatchers = []
        for node in range(cluster.num_nodes):
            for w in range(self.service_workers):
                dispatchers.append(
                    env.process(
                        self._dispatcher(node, w), name=f"dispatch[{node}][{w}]"
                    )
                )

        env.run(until=self._t_end)
        self._stop = True
        if self.monitor is not None:
            self.monitor.stop()
        self.backlog = sum(q.close() for q in self.queues)
        # Drain in-flight transactions; the backlog stays unserved (it is
        # the instability evidence, not extra work to launder away).
        env.run(until=env.all_of(dispatchers))
        cluster.metrics.window_end = env.now
        return self

    # -- results ---------------------------------------------------------

    @property
    def metrics(self) -> "MetricsCollector":
        return self.cluster.metrics

    def throughput(self) -> float:
        """Committed transactions per second of *offered* window (goodput)."""
        return self.cluster.metrics.commits.value / self.horizon

    @property
    def offered(self) -> int:
        return sum(q.offered for q in self.queues)

    @property
    def admitted(self) -> int:
        return sum(q.admitted for q in self.queues)

    @property
    def shed(self) -> int:
        return sum(q.shed for q in self.queues)

    def traffic_summary(self) -> Dict[str, Any]:
        """Open-loop extras for :class:`~repro.core.experiment.ExperimentResult`."""
        offered = self.offered
        shed = self.shed
        shed_rate = shed / offered if offered else 0.0
        assert self.monitor is not None, "run() before traffic_summary()"
        verdict = stability_verdict(self.monitor.window_means, shed_rate)
        mean_depth = sum(
            q.depth.average(self._t_end) for q in self.queues
        )
        out: Dict[str, Any] = {
            "offered": offered,
            "offered_rate": offered / self.horizon,
            "admitted": self.admitted,
            "shed": shed,
            "shed_rate": shed_rate,
            "backlog": self.backlog,
            "stable": bool(verdict["stable"]),
            "stability": verdict,
            "queue_depth_mean": mean_depth,
            "queue_depth_windows": [round(m, 6) for m in self.monitor.window_means],
        }
        if self.latency.count:
            out["latency_mean"] = self.latency.mean
            out["latency_p50"] = self.latency.percentile(50.0)
            out["latency_p95"] = self.latency.percentile(95.0)
            out["latency_p99"] = self.latency.percentile(99.0)
        return out
