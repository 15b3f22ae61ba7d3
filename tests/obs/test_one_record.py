"""One trace record: what the tracer keeps in memory is exactly what the
obs layer exports, one dict built once per emit."""

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.executor import WorkloadExecutor
from repro.obs.events import OBS_CATEGORIES
from repro.obs.report import load_events
from repro.workloads.registry import make_workload


def test_live_records_equal_the_exported_events(tmp_path):
    path = tmp_path / "run.jsonl"
    cluster = Cluster(ClusterConfig(
        num_nodes=4, seed=5, trace=True,
        trace_categories=sorted(OBS_CATEGORIES),
        obs=dict(enabled=True, jsonl_path=str(path)),
    ))
    executor = WorkloadExecutor(
        cluster, make_workload("bank", read_fraction=0.5),
        workers_per_node=2, horizon=1.5,
    )
    executor.setup()
    executor.run()
    cluster.finish_obs()

    records = cluster.tracer.records()
    assert len({r["cat"] for r in records}) > 5  # spans, decisions, rpc, ...
    assert records == list(load_events(str(path)))
