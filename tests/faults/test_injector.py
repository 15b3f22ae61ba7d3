"""Unit tests for the fault injector at the network seam."""

import pytest

from repro.core.config import FaultConfig
from repro.faults import CrashWindow, FaultInjector, FaultPlan, PartitionWindow
from repro.net import MessageType, Network, Node, Topology
from repro.sim import RngRegistry


def build(env, num_nodes=4, **cfg_kw):
    """Network + nodes with an installed injector (zero rates by default,
    so tests can hand-craft windows on the plan)."""
    rngs = RngRegistry(seed=5)
    topo = Topology(num_nodes, rngs.stream("topology"))
    network = Network(env, topo)
    nodes = [Node(env, network, i) for i in range(num_nodes)]
    plan = FaultPlan(
        FaultConfig(enabled=True, **cfg_kw), rngs.stream("faults"), num_nodes
    )
    injector = FaultInjector(plan).install(network)
    return network, nodes, plan, injector


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


class TestDropAndDuplicate:
    def test_full_drop_rate_delivers_nothing(self, env):
        network, nodes, _plan, injector = build(env, drop_rate=1.0)
        got = collect(env, nodes[1])
        for _ in range(5):
            nodes[0].send(1, MessageType.PING)
        env.run()
        assert got == []
        assert injector.dropped == 5
        assert network.messages_delivered.value == 0
        assert network.messages_sent.value == 5

    def test_duplicates_arrive_with_fresh_msg_ids(self, env):
        _network, nodes, _plan, injector = build(env, duplicate_rate=1.0)
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING, {"x": 1})
        env.run()
        assert len(got) == 2
        (_, id_a, pay_a), (_, id_b, pay_b) = got
        assert id_a != id_b, "a duplicate must not reuse the original msg id"
        assert pay_a == pay_b == {"x": 1}
        assert injector.duplicated == 1

    def test_duplicate_payload_is_deep_copied(self, env):
        _network, nodes, _plan, _inj = build(env, duplicate_rate=1.0)
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
        _network, nodes, _plan, _inj = build(env, duplicate_rate=1.0)
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
        _network, nodes, _plan, _inj = build(env, duplicate_rate=1.0)
        got = []
        nodes[1].on(MessageType.PING, lambda m: got.append(m.wire_bytes))
        nodes[0].send(1, MessageType.PING, {"x": 1}, wire_bytes=4096)
        env.run()
        assert got == [4096, 4096]

    def test_extra_delay_postpones_delivery(self, env):
        network, nodes, _plan, injector = build(
            env, extra_delay_rate=1.0, extra_delay_max=0.5
        )
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING)
        env.run()
        base = network.topology.delay(0, 1)
        assert len(got) == 1
        assert got[0][0] > base
        assert injector.delayed == 1


class TestPartitions:
    def test_cross_group_cut_same_side_fine(self, env):
        _network, nodes, plan, injector = build(env)
        plan.partitions.append(PartitionWindow((0, 1), 0.0, 10.0))
        got1 = collect(env, nodes[1])
        got2 = collect(env, nodes[2])
        nodes[0].send(1, MessageType.PING)   # same side: delivered
        nodes[0].send(2, MessageType.PING)   # cross: dropped
        env.run()
        assert len(got1) == 1 and got2 == []
        assert injector.dropped == 1

    def test_partition_heals_after_window(self, env):
        _network, nodes, plan, _inj = build(env)
        plan.partitions.append(PartitionWindow((0,), 0.0, 0.2))
        got = collect(env, nodes[2])
        nodes[0].send(2, MessageType.PING)
        at(env, 0.3, lambda: nodes[0].send(2, MessageType.PING))
        env.run()
        assert len(got) == 1 and got[0][0] > 0.3


class TestCrashes:
    def test_send_from_crashed_node_dropped(self, env):
        _network, nodes, plan, injector = build(env)
        plan.crashes.append(CrashWindow(1, 0.0, 1.0))
        got = collect(env, nodes[0])
        nodes[1].send(0, MessageType.PING)
        env.run()
        assert got == [] and injector.dropped == 1

    def test_in_flight_message_dropped_at_crashed_destination(self, env):
        network, nodes, plan, injector = build(env)
        delay = network.topology.delay(0, 1)
        # Crash opens after the send but before the arrival.
        plan.crashes.append(CrashWindow(1, delay / 2, delay * 10))
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert got == []
        assert injector.delivery_drops == 1

    def test_delivery_resumes_after_restart(self, env):
        _network, nodes, plan, _inj = build(env)
        plan.crashes.append(CrashWindow(1, 0.0, 0.2))
        got = collect(env, nodes[1])
        at(env, 0.5, lambda: nodes[0].send(1, MessageType.PING))
        env.run()
        assert len(got) == 1

    def test_loopback_survives_own_crash_window(self, env):
        _network, nodes, plan, _inj = build(env)
        plan.crashes.append(CrashWindow(1, 0.0, 10.0))
        got = collect(env, nodes[1])
        nodes[1].send(1, MessageType.PING)
        env.run()
        assert len(got) == 1


class TestInstallation:
    def test_double_install_rejected(self, env):
        network, _nodes, plan, _inj = build(env)
        with pytest.raises(ValueError):
            FaultInjector(plan).install(network)

    def test_uninstalled_network_unaffected(self, env):
        rngs = RngRegistry(seed=5)
        topo = Topology(2, rngs.stream("topology"))
        network = Network(env, topo)
        nodes = [Node(env, network, i) for i in range(2)]
        got = collect(env, nodes[1])
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert len(got) == 1
