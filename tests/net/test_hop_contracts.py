"""Contracts of the message hop that nothing else pins: the envelope's
construction rules, what a duplicate keeps, who may write the TFA clock,
and the order of the checks a delivery runs."""

import re
from pathlib import Path

import repro
from repro.core.config import FaultConfig
from repro.faults import CrashWindow, FaultInjector, FaultPlan
from repro.net import Message, MessageType, Network, Node, NodeClock, Topology
from repro.net.message import reset_msg_ids
from repro.sim import RngRegistry

SVC = 0.004


def build(env, msg_process_time=0.0):
    rngs = RngRegistry(seed=5)
    network = Network(env, Topology(2, rngs.stream("topology")))
    nodes = [
        Node(env, network, i, msg_process_time=msg_process_time) for i in range(2)
    ]
    return network, nodes, rngs


class TestMessage:
    def test_string_type_is_coerced(self):
        assert Message("ping", 0, 1).mtype is MessageType.PING

    def test_defaults(self):
        msg = Message(MessageType.PING, 0, 1)
        assert (msg.payload, msg.clock, msg.reply_to) == ({}, 0, None)
        assert (msg.sent_at, msg.wire_bytes) == (0.0, 0)
        assert Message(MessageType.PING, 0, 1).payload is not msg.payload
        assert not msg.is_reply()

    def test_wire_bytes_is_a_constructor_argument(self):
        assert Message(MessageType.PING, 0, 1, wire_bytes=512).wire_bytes == 512

    def test_ids_restart_at_one_after_reset(self):
        reset_msg_ids()
        assert Message(MessageType.PING, 0, 1).msg_id == 1
        assert Message(MessageType.PING, 0, 1).msg_id == 2
        reset_msg_ids()
        assert Message(MessageType.PING, 0, 1).msg_id == 1

    def test_repr(self):
        reset_msg_ids()
        assert repr(Message(MessageType.PING, 0, 1, clock=3)) == (
            "<Message #1 ping 0->1 clk=3>"
        )
        assert repr(Message(MessageType.PONG, 1, 0, reply_to=1)) == (
            "<Message #2 pong 1->0 clk=0 reply_to=1>"
        )

    def test_messages_compare_and_hash_by_identity(self):
        """The dataclass this class replaced compared field-wise and was
        unhashable; ``msg_id`` is unique, so two envelopes never compared
        equal and nothing in ``src/`` uses ``==`` on messages."""
        a, b = Message(MessageType.PING, 0, 1), Message(MessageType.PING, 0, 1)
        assert a != b and a == a
        assert len({a, b}) == 2
        assert not hasattr(a, "__dict__")


class TestClone:
    def test_keeps_the_envelope_and_copies_the_payload(self, env):
        network, nodes, _ = build(env)
        msg = nodes[0].send(
            1, MessageType.PONG, {"nested": {"q": [1]}}, reply_to=41, wire_bytes=4096
        )
        nodes[0].clock.advance_to(9)
        dup = network._clone(msg)
        assert dup.msg_id != msg.msg_id
        assert (dup.mtype, dup.src, dup.dst) == (msg.mtype, 0, 1)
        assert (dup.clock, dup.reply_to) == (msg.clock, 41)  # not re-stamped
        assert (dup.sent_at, dup.wire_bytes) == (msg.sent_at, 4096)
        assert dup.payload == msg.payload
        assert dup.payload["nested"]["q"] is not msg.payload["nested"]["q"]


class TestTfaClock:
    def test_readable_and_written_by_tick_and_advance_to(self):
        clock = NodeClock(3)
        assert clock.tfa_clock == 0
        clock.tick()
        clock.advance_to(6)
        assert clock.tfa_clock == 6

    def test_nothing_else_in_src_writes_it(self):
        """``tfa_clock`` is a plain attribute, so the single-writer rule
        is this scan's to keep."""
        write = re.compile(r"\.tfa_clock\s*(?:[-+*/|&^]|//|<<|>>)?=(?!=)")
        src = Path(repro.__file__).resolve().parent
        writers = sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if write.search(path.read_text(encoding="utf-8"))
        )
        assert writers == ["net/clocks.py"]


class TestDeliveryOrder:
    def test_zero_service_time_dispatches_inside_the_delivery_event(self, env):
        network, nodes, _ = build(env, msg_process_time=0.0)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(env.events_processed))
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert seen == [1] and env.events_processed == 1
        assert nodes[1].messages_processed == 0 and not nodes[1]._inbox.queue

    def test_crashed_destination_vetoes_before_anything_counts(self, env):
        network, nodes, rngs = build(env, msg_process_time=SVC)
        plan = FaultPlan(FaultConfig(enabled=True), rngs.stream("faults"), 2)
        injector = FaultInjector(plan).install(network)
        delay = network.topology.delay(0, 1)
        plan.crashes.append(CrashWindow(1, delay / 2, delay * 10))
        nodes[1].on(MessageType.PING, lambda m: None)
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert injector.delivery_drops == 1
        assert network.messages_sent.value == 1
        assert network.messages_delivered.value == 0
        inbox = nodes[1]._inbox
        assert not inbox.queue and not inbox.busy
        assert nodes[1].messages_processed == 0
        assert env.events_processed == 1  # the link delay; no service period
