"""Unit tests for the Cluster facade and top-level package API."""

import pytest

import repro
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, SchedulerKind
from repro.scheduler.backoff import BackoffScheduler
from repro.scheduler.rts import RtsScheduler
from repro.scheduler.tfa_baseline import TfaScheduler


class TestConstruction:
    def test_kwargs_shortcut(self):
        cluster = Cluster(num_nodes=3, seed=9, scheduler="tfa")
        assert cluster.num_nodes == 3
        assert cluster.config.scheduler is SchedulerKind.TFA

    def test_config_plus_overrides(self):
        base = ClusterConfig(num_nodes=4, seed=1)
        cluster = Cluster(base, seed=5)
        assert cluster.config.seed == 5
        assert cluster.config.num_nodes == 4

    def test_one_component_set_per_node(self):
        cluster = Cluster(num_nodes=5, seed=0)
        assert len(cluster.nodes) == 5
        assert len(cluster.proxies) == 5
        assert len(cluster.engines) == 5
        assert len(cluster.directories) == 5

    @pytest.mark.parametrize("kind,cls", [
        (SchedulerKind.RTS, RtsScheduler),
        (SchedulerKind.TFA, TfaScheduler),
        (SchedulerKind.TFA_BACKOFF, BackoffScheduler),
    ])
    def test_scheduler_kinds_instantiated(self, kind, cls):
        cluster = Cluster(num_nodes=2, seed=0, scheduler=kind)
        assert isinstance(cluster.scheduler_of(0), cls)

    def test_schedulers_are_per_node(self):
        cluster = Cluster(num_nodes=3, seed=0)
        assert cluster.scheduler_of(0) is not cluster.scheduler_of(1)


class TestAlloc:
    def test_round_robin_placement(self):
        cluster = Cluster(num_nodes=3, seed=0)
        for i in range(6):
            cluster.alloc(f"o{i}", i)
        for i in range(6):
            assert cluster.proxies[i % 3].owns(f"o{i}")

    def test_explicit_placement_and_directory(self):
        cluster = Cluster(num_nodes=4, seed=0)
        cluster.alloc("x", "v", node=2)
        assert cluster.owner_of("x") == 2
        assert cluster.committed_value("x") == "v"

    def test_committed_value_missing(self):
        cluster = Cluster(num_nodes=2, seed=0)
        with pytest.raises(KeyError):
            cluster.committed_value("nothing")


class TestTaskIds:
    def test_unique_task_ids(self):
        cluster = Cluster(num_nodes=2, seed=0)
        ids = {cluster.new_task_id(0) for _ in range(10)}
        assert len(ids) == 10


class TestPackageSurface:
    def test_lazy_reexports(self):
        assert repro.Cluster is Cluster
        assert repro.SchedulerKind is SchedulerKind
        assert repro.ClusterConfig is ClusterConfig
        from repro.dstm.errors import TransactionAborted

        assert repro.TransactionAborted is TransactionAborted

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_default_import_graph_leaves_optional_packages_out(self):
        # A default cell pays for what it imports (the ledger's setup_s):
        # the opt-in tooling packages load only on demand (networkx is
        # gated by tests/test_dependencies.py).
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        optional = ["repro.prof", "repro.obs", "repro.traffic", "repro.analysis"]
        code = (
            "import sys\n"
            "import repro.core.cluster, repro.core.experiment\n"
            f"print([m for m in {optional!r} if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
