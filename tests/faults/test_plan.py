"""Unit tests for fault plans: schedule generation, per-message fates,
and the determinism guarantee."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import FaultConfig
from repro.faults import CrashWindow, FaultPlan, PartitionWindow


def make_plan(seed=7, num_nodes=8, **kw):
    cfg = FaultConfig(enabled=True, **kw)
    return FaultPlan(cfg, np.random.default_rng(seed), num_nodes)


class TestScheduleGeneration:
    def test_zero_rates_produce_empty_schedule(self):
        plan = make_plan()
        assert plan.crashes == [] and plan.partitions == []

    def test_crash_windows_are_disjoint(self):
        plan = make_plan(crash_rate=2.0, crash_duration=0.5, schedule_horizon=60.0)
        assert len(plan.crashes) >= 5
        for prev, nxt in zip(plan.crashes, plan.crashes[1:]):
            assert nxt.start >= prev.end
        for w in plan.crashes:
            assert 0.0 <= w.start < 60.0
            assert w.end > w.start
            assert 0 <= w.node < 8

    def test_single_node_cluster_never_crashes(self):
        plan = make_plan(num_nodes=1, crash_rate=10.0)
        assert plan.crashes == []

    def test_partitions_need_three_nodes(self):
        assert make_plan(num_nodes=2, partition_rate=10.0).partitions == []
        assert make_plan(num_nodes=3, partition_rate=10.0).partitions

    def test_partition_group_is_proper_nonempty_subset(self):
        plan = make_plan(num_nodes=7, partition_rate=1.0, schedule_horizon=60.0)
        for w in plan.partitions:
            assert 1 <= len(w.group) <= 3  # at most half of 7
            assert all(0 <= n < 7 for n in w.group)
            assert len(set(w.group)) == len(w.group)

    def test_same_seed_same_schedule(self):
        kw = dict(crash_rate=1.0, partition_rate=0.5)
        assert make_plan(seed=5, **kw).crashes == make_plan(seed=5, **kw).crashes
        assert (
            make_plan(seed=5, **kw).partitions == make_plan(seed=5, **kw).partitions
        )

    def test_different_seed_different_schedule(self):
        kw = dict(crash_rate=1.0)
        assert make_plan(seed=5, **kw).crashes != make_plan(seed=6, **kw).crashes


class TestMessageFate:
    def test_clean_config_consumes_no_rng(self):
        plan = make_plan()
        before = plan._rng.bit_generator.state
        for _ in range(50):
            assert plan.message_fate(0, 1, 0.0).delivered
        assert plan._rng.bit_generator.state == before

    def test_loopback_immune_even_while_crashed(self):
        plan = make_plan(drop_rate=1.0)
        plan.crashes.append(CrashWindow(2, 0.0, 10.0))
        fate = plan.message_fate(2, 2, 5.0)
        assert fate.delivered and not fate.duplicated and fate.extra_delay == 0.0

    def test_crashed_source_drops(self):
        plan = make_plan()
        plan.crashes.append(CrashWindow(1, 1.0, 2.0))
        assert plan.message_fate(1, 0, 1.5).drop_reason == "src_crashed"
        assert plan.message_fate(1, 0, 0.5).delivered   # before the window
        assert plan.message_fate(1, 0, 2.0).delivered   # window is half-open

    def test_partition_blocks_cross_group_only(self):
        plan = make_plan()
        plan.partitions.append(PartitionWindow((0, 1), 0.0, 5.0))
        assert plan.message_fate(0, 2, 1.0).drop_reason == "partition"
        assert plan.message_fate(2, 1, 1.0).drop_reason == "partition"
        assert plan.message_fate(0, 1, 1.0).delivered   # same side
        assert plan.message_fate(2, 3, 1.0).delivered   # same side
        assert plan.message_fate(0, 2, 6.0).delivered   # window over

    def test_drop_rate_one_drops_every_remote_message(self):
        plan = make_plan(drop_rate=1.0)
        for dst in range(1, 8):
            assert plan.message_fate(0, dst, 0.0).drop_reason == "drop"

    def test_duplicate_and_delay_draws(self):
        plan = make_plan(duplicate_rate=1.0, extra_delay_rate=1.0,
                         extra_delay_max=0.25)
        fate = plan.message_fate(0, 1, 0.0)
        assert fate.delivered and fate.duplicated
        assert 0.0 <= fate.extra_delay <= 0.25

    def test_fate_sequence_deterministic(self):
        kw = dict(drop_rate=0.3, duplicate_rate=0.2, extra_delay_rate=0.2,
                  extra_delay_max=0.1)
        a, b = make_plan(seed=9, **kw), make_plan(seed=9, **kw)
        fates_a = [a.message_fate(0, 1, 0.0) for _ in range(200)]
        fates_b = [b.message_fate(0, 1, 0.0) for _ in range(200)]
        assert fates_a == fates_b

    def test_deliver_blocked_only_by_destination_crash(self):
        plan = make_plan()
        plan.crashes.append(CrashWindow(3, 0.0, 1.0))
        plan.partitions.append(PartitionWindow((0,), 0.0, 1.0))
        assert plan.deliver_blocked(3, 0.5)
        assert not plan.deliver_blocked(3, 1.5)
        # Partitions cut links at send time, not messages already in flight.
        assert not plan.deliver_blocked(0, 0.5)


class TestFaultConfigValidation:
    def test_probability_rates_bounded(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(duplicate_rate=-0.1)

    def test_replace_revalidates(self):
        cfg = FaultConfig()
        assert dataclasses.replace(cfg, drop_rate=0.5).drop_rate == 0.5
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, drop_rate=2.0)
