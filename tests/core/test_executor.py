"""Unit tests for the workload executor."""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, SchedulerKind
from repro.core.executor import WorkloadExecutor
from repro.workloads.bank import BankWorkload


def make(horizon=None, stop_after_commits=None, **kw):
    cluster = Cluster(ClusterConfig(num_nodes=4, seed=2,
                                    scheduler=SchedulerKind.TFA))
    wl = BankWorkload(read_fraction=0.5)
    ex = WorkloadExecutor(cluster, wl, workers_per_node=2, horizon=horizon,
                          stop_after_commits=stop_after_commits, **kw)
    return cluster, wl, ex


class TestConfiguration:
    def test_requires_stop_condition(self):
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=1))
        with pytest.raises(ValueError, match="stop condition"):
            WorkloadExecutor(cluster, BankWorkload(), workers_per_node=1)

    def test_requires_positive_workers(self):
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=1))
        with pytest.raises(ValueError):
            WorkloadExecutor(cluster, BankWorkload(), workers_per_node=0,
                             horizon=1.0)


class TestHorizonRuns:
    def test_runs_to_horizon_and_drains(self):
        cluster, wl, ex = make(horizon=3.0)
        ex.setup()
        ex.run()
        assert cluster.metrics.commits.value > 0
        # All workers drained: the clock may pass the horizon slightly.
        assert cluster.env.now >= 3.0

    def test_throughput_uses_horizon(self):
        cluster, wl, ex = make(horizon=3.0)
        ex.setup()
        ex.run()
        assert ex.throughput() == pytest.approx(
            cluster.metrics.commits.value / 3.0
        )

    def test_metrics_window_recorded(self):
        cluster, wl, ex = make(horizon=2.0)
        ex.setup()
        ex.run()
        assert cluster.metrics.window_start == 0.0
        assert cluster.metrics.window_end >= 2.0


class TestCommitTargetRuns:
    def test_stops_near_target(self):
        cluster, wl, ex = make(stop_after_commits=20)
        ex.setup()
        ex.run()
        assert 20 <= cluster.metrics.commits.value <= 28


class TestOpLog:
    def test_disabled_by_default(self):
        cluster, wl, ex = make(horizon=2.0)
        ex.setup()
        ex.run()
        assert ex.op_log == []

    def test_logs_serialization_time_order_keys(self):
        cluster, wl, ex = make(horizon=2.0)
        ex.log_ops = True
        ex.setup()
        ex.run()
        assert len(ex.op_log) == cluster.metrics.commits.value
        for when, seq, op, _result in ex.op_log:
            assert when is not None
            assert op.profile.startswith("bank.")
