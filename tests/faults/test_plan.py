"""Unit tests for the fault plan: schedule generation, the network seam
(per-message fates at send time, the crashed-destination veto at
arrival), and the determinism guarantee."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import FaultConfig
from repro.core.metrics import MetricsCollector
from repro.faults import CrashWindow, FaultPlan, PartitionWindow
from repro.net import Message, MessageType, Network, Node, Topology
from repro.sim import Environment, RngRegistry, Tracer

BASE = 0.01


def make_plan(seed=7, num_nodes=8, **kw):
    cfg = FaultConfig(enabled=True, **kw)
    return FaultPlan(cfg, np.random.default_rng(seed), num_nodes)


def build(env, num_nodes=4, seed=5, **cfg_kw):
    """Network + nodes with an installed plan (zero rates by default, so
    tests can hand-craft windows on the plan).  The plan counts into a
    :class:`MetricsCollector` and keeps every ``fault.*`` trace record."""
    rngs = RngRegistry(seed=seed)
    network = Network(env, Topology(num_nodes, rngs.stream("topology")))
    nodes = [Node(env, network, i) for i in range(num_nodes)]
    plan = FaultPlan(
        FaultConfig(enabled=True, **cfg_kw), rngs.stream("faults"), num_nodes,
        metrics=MetricsCollector(), tracer=Tracer(enabled=True),
    ).install(network)
    return network, nodes, plan


def drops(plan):
    """The reason of every drop the plan traced, in order."""
    return [r["reason"] for r in plan.tracer.records("fault.drop")]


def send_at(env, plan, src, dst, t=0.0):
    """``plan.on_send`` for a ``src -> dst`` message at simulated time ``t``."""
    env.run(until=t)
    return plan.on_send(Message(MessageType.PING, src, dst), BASE)


def collect(env, node):
    got = []
    node.on(MessageType.PING, lambda m: got.append((env.now, m.msg_id, m.payload)))
    return got


def at(env, t, fn):
    """Run ``fn`` at simulated time ``t``."""
    def proc():
        yield env.timeout(t)
        fn()
    env.process(proc())


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


class TestOnSend:
    def test_clean_config_consumes_no_rng(self, env):
        _network, _nodes, plan = build(env)
        before = plan._rng.state
        for _ in range(50):
            assert send_at(env, plan, 0, 1) == [BASE]
        assert plan._rng.state == before

    def test_loopback_immune_even_while_crashed(self, env):
        _network, _nodes, plan = build(env, drop_rate=1.0)
        plan.crashes.append(CrashWindow(2, 0.0, 10.0))
        assert send_at(env, plan, 2, 2, 5.0) == [BASE]
        assert plan.on_deliver(Message(MessageType.PING, 2, 2))
        assert drops(plan) == [] and plan.tracer.records() == []

    def test_crashed_source_drops(self, env):
        _network, _nodes, plan = build(env)
        plan.crashes.append(CrashWindow(1, 1.0, 2.0))
        assert send_at(env, plan, 1, 0, 0.5) == [BASE]   # before the window
        assert send_at(env, plan, 1, 0, 1.5) == []
        assert send_at(env, plan, 1, 0, 2.0) == [BASE]   # window is half-open
        assert drops(plan) == ["src_crashed"]

    def test_partition_blocks_cross_group_only(self, env):
        _network, _nodes, plan = build(env)
        plan.partitions.append(PartitionWindow((0, 1), 0.0, 5.0))
        assert send_at(env, plan, 0, 2, 1.0) == []
        assert send_at(env, plan, 2, 1, 1.0) == []
        assert send_at(env, plan, 0, 1, 1.0) == [BASE]   # same side
        assert send_at(env, plan, 2, 3, 1.0) == [BASE]   # same side
        assert send_at(env, plan, 0, 2, 6.0) == [BASE]   # window over
        assert drops(plan) == ["partition", "partition"]

    def test_drop_rate_one_drops_every_remote_message(self, env):
        _network, _nodes, plan = build(env, num_nodes=8, drop_rate=1.0)
        for dst in range(1, 8):
            assert send_at(env, plan, 0, dst) == []
        assert drops(plan) == ["drop"] * 7
        assert plan.metrics.fault_drops.value == 7

    def test_duplicate_and_delay_draws(self, env):
        _network, _nodes, plan = build(env, duplicate_rate=1.0, extra_delay_rate=1.0,
                                       extra_delay_max=0.25)
        first, second = send_at(env, plan, 0, 1)
        assert first == second and BASE <= first <= BASE + 0.25
        assert plan.metrics.fault_duplicates.value == 1
        assert [r["extra"] for r in plan.tracer.records("fault.delay")] == [first - BASE]
        assert len(plan.tracer.records("fault.dup")) == 1

    def test_fate_sequence_deterministic(self):
        kw = dict(drop_rate=0.3, duplicate_rate=0.2, extra_delay_rate=0.2,
                  extra_delay_max=0.1)

        def fates():
            env = Environment()
            _network, _nodes, plan = build(env, seed=9, **kw)
            return [send_at(env, plan, 0, 1) for _ in range(200)], drops(plan)

        delays, reasons = fates()
        assert (delays, reasons) == fates()
        assert {len(d) for d in delays} == {0, 1, 2} and reasons


class TestOnDeliver:
    def test_only_a_destination_crash_vetoes_delivery(self, env):
        _network, _nodes, plan = build(env)
        plan.crashes.append(CrashWindow(3, 0.0, 1.0))
        plan.partitions.append(PartitionWindow((0,), 0.0, 1.0))
        env.run(until=0.5)
        assert not plan.on_deliver(Message(MessageType.PING, 1, 3))
        # Partitions cut links at send time, not messages already in flight.
        assert plan.on_deliver(Message(MessageType.PING, 1, 0))
        env.run(until=1.5)
        assert plan.on_deliver(Message(MessageType.PING, 1, 3))
        assert drops(plan) == ["dst_crashed"]


class TestDropAndDuplicate:
    def test_full_drop_rate_delivers_nothing(self, env):
        network, nodes, plan = build(env, drop_rate=1.0)
        got = collect(env, nodes[1])
        for _ in range(5):
            nodes[0].send(1, MessageType.PING)
        env.run()
        assert got == []
        assert plan.metrics.fault_drops.value == 5
        assert network.messages_delivered.value == 0
        assert network.messages_sent.value == 5

    def test_duplicates_arrive_with_fresh_msg_ids(self, env):
        _network, nodes, plan = build(env, duplicate_rate=1.0)
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING, {"x": 1})
        env.run()
        assert len(got) == 2
        (_, id_a, pay_a), (_, id_b, pay_b) = got
        assert id_a != id_b, "a duplicate must not reuse the original msg id"
        assert pay_a == pay_b == {"x": 1}
        assert plan.metrics.fault_duplicates.value == 1
        assert [r["sub"] for r in plan.tracer.records("fault.dup")] == [f"msg{id_a}"]

    def test_duplicate_payload_is_deep_copied(self, env):
        _network, nodes, _plan = build(env, duplicate_rate=1.0)
        seen = []
        nodes[1].on(
            MessageType.PING,
            lambda m: (m.payload.__setitem__("x", m.payload["x"] + 1),
                       seen.append(m.payload["x"])),
        )
        nodes[0].send(1, MessageType.PING, {"x": 0})
        env.run()
        # Each copy mutates its own dict: both observe 0 -> 1.
        assert seen == [1, 1]

    def test_duplicate_nested_payload_is_not_aliased(self, env):
        """Regression: _clone used to copy only the top level, so a
        handler mutating a nested dict/list (hand-off queues, proxy
        fence maps) corrupted the sibling duplicate in place."""
        _network, nodes, _plan = build(env, duplicate_rate=1.0)
        seen = []
        nodes[1].on(
            MessageType.PING,
            lambda m: (m.payload["inner"].append(len(seen)),
                       seen.append(list(m.payload["inner"]))),
        )
        nodes[0].send(1, MessageType.PING, {"inner": [], "meta": {"v": 0}})
        env.run()
        # Each duplicate gets its own nested list: both observe just
        # their own append, never the sibling's.
        assert seen == [[0], [1]]

    def test_duplicate_propagates_wire_bytes(self, env):
        _network, nodes, _plan = build(env, duplicate_rate=1.0)
        got = []
        nodes[1].on(MessageType.PING, lambda m: got.append(m.wire_bytes))
        nodes[0].send(1, MessageType.PING, {"x": 1}, wire_bytes=4096)
        env.run()
        assert got == [4096, 4096]

    def test_extra_delay_postpones_delivery(self, env):
        network, nodes, plan = build(env, extra_delay_rate=1.0, extra_delay_max=0.5)
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING)
        env.run()
        base = network.topology.delay(0, 1)
        assert len(got) == 1
        assert got[0][0] > base
        (delayed,) = plan.tracer.records("fault.delay")
        assert got[0][0] == pytest.approx(base + delayed["extra"])


class TestPartitions:
    def test_cross_group_cut_same_side_fine(self, env):
        _network, nodes, plan = build(env)
        plan.partitions.append(PartitionWindow((0, 1), 0.0, 10.0))
        got1 = collect(env, nodes[1])
        got2 = collect(env, nodes[2])
        nodes[0].send(1, MessageType.PING)   # same side: delivered
        nodes[0].send(2, MessageType.PING)   # cross: dropped
        env.run()
        assert len(got1) == 1 and got2 == []
        assert plan.metrics.fault_drops.value == 1
        assert drops(plan) == ["partition"]

    def test_partition_heals_after_window(self, env):
        _network, nodes, plan = build(env)
        plan.partitions.append(PartitionWindow((0,), 0.0, 0.2))
        got = collect(env, nodes[2])
        nodes[0].send(2, MessageType.PING)
        at(env, 0.3, lambda: nodes[0].send(2, MessageType.PING))
        env.run()
        assert len(got) == 1 and got[0][0] > 0.3


class TestCrashes:
    def test_send_from_crashed_node_dropped(self, env):
        _network, nodes, plan = build(env)
        plan.crashes.append(CrashWindow(1, 0.0, 1.0))
        got = collect(env, nodes[0])
        nodes[1].send(0, MessageType.PING)
        env.run()
        assert got == [] and plan.metrics.fault_drops.value == 1
        assert drops(plan) == ["src_crashed"]

    def test_in_flight_message_dropped_at_crashed_destination(self, env):
        network, nodes, plan = build(env)
        delay = network.topology.delay(0, 1)
        # Crash opens after the send but before the arrival.
        plan.crashes.append(CrashWindow(1, delay / 2, delay * 10))
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert got == []
        assert plan.metrics.fault_drops.value == 1
        assert drops(plan) == ["dst_crashed"]

    def test_delivery_resumes_after_restart(self, env):
        _network, nodes, plan = build(env)
        plan.crashes.append(CrashWindow(1, 0.0, 0.2))
        got = collect(env, nodes[1])
        at(env, 0.5, lambda: nodes[0].send(1, MessageType.PING))
        env.run()
        assert len(got) == 1

    def test_loopback_survives_own_crash_window(self, env):
        _network, nodes, plan = build(env)
        plan.crashes.append(CrashWindow(1, 0.0, 10.0))
        got = collect(env, nodes[1])
        nodes[1].send(1, MessageType.PING)
        env.run()
        assert len(got) == 1


class TestInstallation:
    def test_double_install_rejected(self, env):
        network, _nodes, plan = build(env)
        other = FaultPlan(FaultConfig(enabled=True), RngRegistry(seed=6).stream("faults"), 4)
        with pytest.raises(ValueError):
            other.install(network)
        assert network.faults is plan

    def test_uninstalled_network_unaffected(self, env):
        rngs = RngRegistry(seed=5)
        topo = Topology(2, rngs.stream("topology"))
        network = Network(env, topo)
        nodes = [Node(env, network, i) for i in range(2)]
        assert network.faults is None
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert len(got) == 1


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
