"""Determinism and strict-additivity guarantees of the obs layer.

Two properties the exporters promise:

* same seed -> byte-identical JSONL exports, and so byte-identical
  Chrome exports of them (``python -m repro.obs.report --chrome``), and
* enabling obs never changes simulation outcomes: a fault-free run
  with obs on reports exactly the same metrics as one with obs off.
"""

from repro.core.cluster import reset_run_ids
from repro.core.config import ClusterConfig, ObsConfig
from repro.core.experiment import run_experiment
from repro.obs.report import main


def _run(tmp_path, tag, **cfg_kwargs):
    """One traced run; returns its result, its JSONL bytes and the bytes
    of the report's Chrome export of that JSONL."""
    reset_run_ids()
    jsonl = tmp_path / f"{tag}.jsonl"
    chrome = tmp_path / f"{tag}.trace.json"
    cfg = ClusterConfig(
        num_nodes=4, seed=7,
        obs=ObsConfig(enabled=True, jsonl_path=str(jsonl)),
        **cfg_kwargs,
    )
    result = run_experiment("bank", cfg, horizon=2.0, workers_per_node=2)
    assert main([str(jsonl), "--chrome", str(chrome)]) == 0
    return result, jsonl.read_bytes(), chrome.read_bytes()


class TestByteIdentity:
    def test_same_seed_identical_exports(self, tmp_path):
        r1, jsonl1, chrome1 = _run(tmp_path, "a")
        r2, jsonl2, chrome2 = _run(tmp_path, "b")
        assert r1.commits == r2.commits > 0
        assert jsonl1 == jsonl2
        assert chrome1 == chrome2

    def test_same_seed_identical_exports_under_faults(self, tmp_path):
        faults = dict(enabled=True, drop_rate=0.02, crash_rate=0.05)
        _, jsonl1, chrome1 = _run(tmp_path, "fa", faults=faults)
        _, jsonl2, chrome2 = _run(tmp_path, "fb", faults=faults)
        assert jsonl1 == jsonl2
        assert chrome1 == chrome2

    def test_different_seed_differs(self, tmp_path):
        _, jsonl1, _ = _run(tmp_path, "s7")
        reset_run_ids()
        path = tmp_path / "s8.jsonl"
        cfg = ClusterConfig(num_nodes=4, seed=8,
                            obs=ObsConfig(enabled=True, jsonl_path=str(path)))
        run_experiment("bank", cfg, horizon=2.0, workers_per_node=2)
        assert jsonl1 != path.read_bytes()


class TestStrictAdditivity:
    """Obs on vs off must not change what the simulation computes.

    Fault-free only: with faults enabled, obs adds window-trace timeout
    events to the DES calendar, which legitimately reorders ties.
    """

    @staticmethod
    def _run_cell(cfg):
        from repro.core.cluster import Cluster
        from repro.core.executor import WorkloadExecutor
        from repro.workloads.registry import make_workload

        reset_run_ids()
        cluster = Cluster(cfg)
        executor = WorkloadExecutor(
            cluster, make_workload("bank", read_fraction=0.9),
            workers_per_node=2, horizon=2.0,
        )
        executor.setup()
        executor.run()
        cluster.finish_obs()
        return cluster.metrics.summary()

    def test_metrics_identical_with_obs_on(self):
        base_cfg = ClusterConfig(num_nodes=4, seed=13)
        base_summary = self._run_cell(base_cfg)
        obs_summary = self._run_cell(
            base_cfg.replace(obs=ObsConfig(enabled=True))
        )
        assert base_summary["commits"] > 0
        assert obs_summary == base_summary
