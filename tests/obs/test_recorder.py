"""Integration tests: the obs sinks wired through a live cluster run."""

import json

import pytest

from repro.core.config import ClusterConfig, ObsConfig
from repro.core.experiment import run_experiment
from repro.obs import LiveFold, latency_row, validate_events
from repro.obs.events import OBS_CATEGORIES
from repro.obs.report import load_events, main, summarize


def traced_run(tmp_path=None, **obs_kwargs):
    obs = ObsConfig(enabled=True, **obs_kwargs)
    cfg = ClusterConfig(num_nodes=4, seed=5, obs=obs)
    return run_experiment("bank", cfg, horizon=2.0, workers_per_node=2)


class TestClusterWiring:
    def test_obs_disabled_by_default(self):
        from repro.core.cluster import Cluster

        cluster = Cluster(ClusterConfig(num_nodes=2))
        assert cluster.obs is None
        assert cluster.finish_obs() is None
        assert not cluster.tracer.enabled

    def test_obs_enables_tracer_with_obs_categories(self):
        from repro.core.cluster import Cluster

        cluster = Cluster(ClusterConfig(num_nodes=2, obs=ObsConfig(enabled=True)))
        assert cluster.obs is not None
        for cat in OBS_CATEGORIES:
            assert cluster.tracer.wants(cat)
        assert not cluster.tracer.wants("unrelated.category")
        # streaming only: the tracer retains nothing in memory
        cluster.tracer.emit(0.0, "obs.queue", "o1", node="n0", len=0)
        assert len(cluster.tracer) == 0

    def test_obs_dict_coercion(self):
        cfg = ClusterConfig(num_nodes=2, obs=dict(enabled=True, jsonl_path="r.jsonl"))
        assert isinstance(cfg.obs, ObsConfig)
        assert cfg.obs.jsonl_path == "r.jsonl"

    def test_trace_flag_keeps_in_memory_records(self):
        from repro.core.cluster import Cluster

        cluster = Cluster(
            ClusterConfig(num_nodes=2, trace=True, obs=ObsConfig(enabled=True))
        )
        cluster.tracer.emit(0.0, "obs.queue", "o1", node="n0", len=0)
        assert len(cluster.tracer) == 1  # trace=True retains records too


class TestRecorderThroughRun:
    def test_experiment_carries_obs_summary(self, tmp_path):
        path = tmp_path / "run.jsonl"
        r = traced_run(jsonl_path=str(path))
        assert r.commits > 0
        obs = r.extra["obs"]
        assert set(obs) == {"events", "phases"} and obs["events"] > 0
        # the per-node rows come from the report over the JSONL
        nodes = summarize(load_events(str(path)))["nodes"]
        assert sum(row["commits"] for row in nodes) == r.commits
        phases = obs["phases"]
        assert phases["span.commit"]["count"] >= r.commits
        assert phases["open"]["count"] > 0
        # every committed root closed a commit phase; aborts mid-commit
        # force-close theirs at span.end, so >= not ==
        assert phases["commit"]["count"] >= r.commits

    def test_jsonl_export_is_valid_schema(self, tmp_path):
        path = tmp_path / "run.jsonl"
        r = traced_run(jsonl_path=str(path))
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(events) == r.extra["obs"]["events"]
        assert validate_events(events) == len(events)

    def test_chrome_export_loads_as_json(self, tmp_path):
        jsonl, path = tmp_path / "run.jsonl", tmp_path / "run.trace.json"
        traced_run(jsonl_path=str(jsonl))
        assert main([str(jsonl), "--chrome", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        phs = {e["ph"] for e in events}
        assert "X" in phs and "M" in phs
        # one process per node, named
        names = [e for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert {e["args"]["name"] for e in names} >= {"node 0", "node 1"}

    def test_phase_stat_row(self):
        row = latency_row([3.0, 1.0, 2.0])
        assert row == {"count": 3, "mean": 2.0, "p50": 2.0,
                       "p95": pytest.approx(2.9), "p99": pytest.approx(2.98)}
        # exact and order-independent: the mean is an fsum, not a
        # running update, so a permutation gives the same bits
        samples = [0.1, 0.2, 0.3, 1e-9, 7.0]
        assert latency_row(samples) == latency_row(samples[::-1])

    def test_recorder_pairs_phases_standalone(self):
        rec = LiveFold()

        def feed(t, cat, sub, **kw):
            rec.accept({"t": t, "cat": cat, "sub": sub, **kw})

        feed(0.0, "span.begin", "tx1", task="t", node="n0", attempt=0,
             profile="p", depth=0)
        feed(0.1, "span.phase", "tx1", phase="commit", edge="B")
        feed(0.4, "span.phase", "tx1", phase="commit", edge="E")
        feed(0.2, "span.phase", "ghost", phase="open", edge="B")  # ignored
        feed(0.5, "span.end", "tx1", task="t", node="n0", outcome="commit")
        rows = rec.summary()["phases"]
        assert rows["commit"]["count"] == 1
        assert rows["commit"]["mean"] == pytest.approx(0.3)
        assert rows["span.commit"]["mean"] == pytest.approx(0.5)
