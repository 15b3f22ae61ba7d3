"""Unit tests for the cluster configuration."""

import pytest

from repro.core.config import ClusterConfig, SchedulerKind
from repro.dstm.contention import WinnerPolicy
from repro.dstm.transaction import NestingModel
from repro.net.topology import TopologyKind


class TestValidation:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.num_nodes >= 1
        assert cfg.scheduler is SchedulerKind.RTS

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)

    def test_bad_delay_band_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(min_link_delay=0.1, max_link_delay=0.01)
        with pytest.raises(ValueError):
            ClusterConfig(min_link_delay=0.0)

    def test_negative_op_time_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(op_local_time=-1)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(cl_threshold=0)

    def test_bad_conflict_scope_rejected_at_construction(self):
        with pytest.raises(ValueError, match="conflict_scope.*'bogus'"):
            ClusterConfig(conflict_scope="bogus")

    @pytest.mark.parametrize("scheduler", ["rts", "tfa"])
    def test_bad_rts_admission_rejected_whatever_the_scheduler(self, scheduler):
        with pytest.raises(ValueError, match="rts_admission.*'nope'"):
            ClusterConfig(scheduler=scheduler, rts_admission="nope")

    def test_bad_conflict_scope_rejected_at_cluster(self):
        from repro.core.cluster import Cluster

        with pytest.raises(ValueError):
            Cluster(ClusterConfig(num_nodes=2, conflict_scope="bogus"))


class TestCoercion:
    def test_string_scheduler(self):
        assert ClusterConfig(scheduler="tfa").scheduler is SchedulerKind.TFA

    def test_string_topology(self):
        assert ClusterConfig(topology="ring").topology is TopologyKind.RING

    def test_string_nesting(self):
        assert ClusterConfig(nesting="flat").nesting is NestingModel.FLAT

    def test_string_winner_policy(self):
        cfg = ClusterConfig(winner_policy="greedy-timestamp")
        assert cfg.winner_policy is WinnerPolicy.GREEDY_TIMESTAMP


class TestReplace:
    def test_replace_creates_modified_copy(self):
        base = ClusterConfig(num_nodes=4, seed=1)
        other = base.replace(seed=2)
        assert other.seed == 2
        assert other.num_nodes == 4
        assert base.seed == 1

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            ClusterConfig().replace(num_nodes=-1)

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            ClusterConfig().seed = 99
