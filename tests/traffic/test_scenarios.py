"""Scenario scripts: schedules, validation, exact-time retargeting."""

import pytest

from repro.core import ArrivalConfig, ClusterConfig, SchedulerKind
from repro.core.cluster import Cluster
from repro.traffic import OpenLoopExecutor, Phase, Scenario, make_scenario
from repro.workloads.registry import make_workload


class TestScenario:
    def test_phase_at(self):
        s = make_scenario("flash-crowd", horizon=10.0)
        assert s.phase_at(0.0).name == "steady"
        assert s.phase_at(3.99).name == "steady"
        assert s.phase_at(4.0).name == "surge"
        assert s.phase_at(6.99).name == "surge"
        assert s.phase_at(7.0).name == "recovery"

    def test_flash_crowd_shape(self):
        s = make_scenario("flash-crowd", horizon=10.0, peak=5.0)
        assert [p.at for p in s.phases] == [0.0, 4.0, 7.0]
        assert [p.rate_scale for p in s.phases] == [1.0, 5.0, 1.0]

    def test_hotspot_migration_shape(self):
        s = make_scenario("hotspot-migration", horizon=8.0, moves=4)
        assert [p.at for p in s.phases] == [0.0, 2.0, 4.0, 6.0]
        assert [p.hotspot_shift for p in s.phases] == [0, 1, 2, 3]
        assert s.phases[0].zipf_s is not None    # skew set once, up front

    def test_diurnal_peaks_mid_run(self):
        s = make_scenario("diurnal", horizon=12.0, trough=0.25, steps=6)
        scales = [p.rate_scale for p in s.phases]
        assert scales[0] == pytest.approx(0.25)
        assert max(scales) == scales[3] == pytest.approx(1.0)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("black-friday", horizon=10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Scenario("x", (Phase(0.0, "a"), Phase(0.0, "b")))
        with pytest.raises(ValueError, match="must start at 0"):
            Scenario("x", (Phase(1.0, "a"),))
        with pytest.raises(ValueError, match="rate_scale"):
            Scenario("x", (Phase(0.0, "a", rate_scale=0.0),))
        with pytest.raises(ValueError, match="at least one phase"):
            Scenario("x", ())


class TestEngineRetargeting:
    def _run(self, scenario, horizon=4.0):
        cfg = ClusterConfig(
            num_nodes=2, seed=9, scheduler=SchedulerKind.RTS, cl_threshold=4,
            trace=True, trace_categories=("traffic.phase",),
            arrival=ArrivalConfig(enabled=True, rate=8.0, scenario=scenario),
        )
        cluster = Cluster(cfg)
        workload = make_workload("dht", read_fraction=0.9)
        ex = OpenLoopExecutor(cluster, workload, cfg.arrival,
                              service_workers=1, horizon=horizon)
        ex.setup()
        ex.run()
        return cluster, ex

    def test_phases_fire_at_exact_timestamps(self):
        cluster, ex = self._run("flash-crowd", horizon=4.0)
        events = cluster.tracer.records("traffic.phase")
        assert [(r["t"], r["name"]) for r in events] == [
            (0.0, "steady"),
            (1.6, "surge"),          # exactly horizon * 0.4
            (2.8, "recovery"),       # exactly horizon * 0.7
        ]
        assert ex.rate_scale == 1.0  # recovery restored the base rate

    def test_hotspot_migration_moves_the_popularity(self):
        cluster, ex = self._run("hotspot-migration", horizon=4.0)
        assert ex.popularity is not None
        assert ex.popularity.shift == 3      # last of 4 moves applied
        assert ex.popularity.s == pytest.approx(1.2)
