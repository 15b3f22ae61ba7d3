"""Poisson arrivals: determinism and rate fidelity, read off the
``traffic.arrival`` trace of an open-loop run."""

import itertools

import pytest

from repro.core import ArrivalConfig, ClusterConfig, SchedulerKind
from repro.core.cluster import Cluster
from repro.sim import RngRegistry
from repro.traffic import OpenLoopExecutor
from repro.workloads.registry import make_workload


def _arrival_times(seed=7, rate=40.0, horizon=2.0):
    """Arrival instants at the one node of a 1-node open-loop run."""
    cfg = ClusterConfig(
        num_nodes=1, seed=seed, scheduler=SchedulerKind.RTS, cl_threshold=4,
        trace=True, trace_categories=("traffic.arrival",),
        arrival=ArrivalConfig(enabled=True, rate=rate),
    )
    cluster = Cluster(cfg)
    ex = OpenLoopExecutor(cluster, make_workload("dht", read_fraction=0.9),
                          cfg.arrival, service_workers=1, horizon=horizon)
    ex.setup()
    ex.run()
    return [r["t"] for r in cluster.tracer.records("traffic.arrival")]


class TestPoisson:
    def test_same_seed_same_stream(self):
        """Arrivals are the running sum of Exp(1/rate) draws from the
        node's ``traffic.arrivals[n]`` stream, to the bit."""
        times = _arrival_times(seed=7, rate=40.0)
        rng = RngRegistry(seed=7).stream("traffic.arrivals[0]")
        gaps = [float(rng.exponential(1.0 / 40.0)) for _ in times]
        assert times == list(itertools.accumulate(gaps))
        assert times == _arrival_times(seed=7, rate=40.0)

    def test_different_seeds_differ(self):
        assert _arrival_times(seed=1) != _arrival_times(seed=2)

    def test_mean_rate(self):
        times = _arrival_times(rate=200.0, horizon=10.0)
        observed = len(times) / 10.0
        assert observed == pytest.approx(200.0, rel=0.1)

    def test_rejects_nonpositive_rate(self):
        for rate in (0.0, -1.0):
            with pytest.raises(ValueError, match="rate"):
                ArrivalConfig(enabled=True, rate=rate)


class TestProcess:
    @pytest.mark.parametrize("kind", ["mmpp", "uniform"])
    def test_unknown_kind(self, kind):
        """Poisson is the one arrival process; ``process`` names it."""
        with pytest.raises(ValueError, match="unknown arrival process"):
            ArrivalConfig(enabled=True, process=kind)
