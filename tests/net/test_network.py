"""Unit tests for the transport and node runtime."""

import pytest

from repro.net import Message, MessageType, Network, Node, Topology
from repro.rpc import PeerUnreachable, RetryPolicy, RpcClient
from repro.sim import RngRegistry, Tracer

#: one 10 ms reply window, no retry
ONE_WINDOW = RetryPolicy(timeout=0.01, max_retries=0)


@pytest.fixture
def net(env):
    rng = RngRegistry(seed=2).stream("topology")
    topo = Topology(4, rng)
    network = Network(env, topo, tracer=Tracer(enabled=True))
    nodes = [Node(env, network, i) for i in range(4)]
    return network, nodes


class TestTransport:
    def test_delivery_after_link_delay(self, env, net):
        network, nodes = net
        got = []
        nodes[1].on(MessageType.PING, lambda m: got.append((env.now, m.payload["x"])))
        nodes[0].send(1, MessageType.PING, {"x": 42})
        env.run()
        assert got == [(network.topology.delay(0, 1), 42)]

    def test_local_send_is_instant(self, env, net):
        network, nodes = net
        got = []
        nodes[0].on(MessageType.PING, lambda m: got.append(env.now))
        nodes[0].send(0, MessageType.PING)
        env.run()
        assert got == [0.0]

    def test_fifo_per_link(self, env, net):
        network, nodes = net
        got = []
        nodes[2].on(MessageType.PING, lambda m: got.append(m.payload["seq"]))
        for seq in range(5):
            nodes[0].send(2, MessageType.PING, {"seq": seq})
        env.run()
        assert got == [0, 1, 2, 3, 4]

    def test_unknown_destination_rejected(self, env, net):
        network, nodes = net
        with pytest.raises(KeyError):
            network.send(Message(MessageType.PING, 0, 99))

    def test_unhandled_type_raises(self, env, net):
        network, nodes = net
        nodes[0].send(1, MessageType.PING)
        with pytest.raises(LookupError):
            env.run()

    def test_duplicate_attach_rejected(self, env, net):
        network, nodes = net
        with pytest.raises(ValueError):
            Node(env, network, 0)

    def test_attach_out_of_topology_rejected(self, env, net):
        network, nodes = net
        with pytest.raises(ValueError):
            Node(env, network, 4)

    def test_instrumentation_counters(self, env, net):
        network, nodes = net
        nodes[1].on(MessageType.PING, lambda m: None)
        nodes[0].send(1, MessageType.PING)
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert network.messages_sent.value == 2
        assert network.messages_delivered.value == 2
        assert network.per_type[MessageType.PING] == 2

    def test_trace_records_send_and_recv(self, env, net):
        network, nodes = net
        nodes[1].on(MessageType.PING, lambda m: None)
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert len(network.tracer.records("net.send")) == 1
        assert len(network.tracer.records("net.recv")) == 1


class TestRpc:
    def test_request_reply_roundtrip(self, env, net):
        network, nodes = net

        def handler(msg):
            nodes[3].reply(msg, MessageType.PONG, {"echo": msg.payload["v"] * 2})

        nodes[3].on(MessageType.PING, handler)

        def client(env):
            reply = yield nodes[0].submit(3, MessageType.PING, {"v": 21})
            return (env.now, reply.payload["echo"])

        p = env.process(client(env))
        env.run()
        rtt = 2 * network.topology.delay(0, 3)
        assert p.value == (pytest.approx(rtt), 42)

    def test_request_timeout_raises(self, env, net):
        network, nodes = net
        nodes[1].on(MessageType.PING, lambda m: None)  # never replies
        rpc = RpcClient(nodes[0], policy=ONE_WINDOW)

        def client(env):
            with pytest.raises(PeerUnreachable):
                yield from rpc.call(1, "ping")
            windows = [ONE_WINDOW.nth_timeout(i) for i in range(ONE_WINDOW.attempts)]
            return env.now == pytest.approx(sum(windows))

        p = env.process(client(env))
        env.run()
        assert p.value is True

    def test_late_reply_after_timeout_goes_to_handler(self, env, net):
        """After an RPC timeout the reply is delivered as an ordinary
        message (the hand-off-after-backoff path in RTS)."""
        network, nodes = net
        late = []
        nodes[0].on(MessageType.PONG, lambda m: late.append(m.payload["v"]))

        def slow_handler(msg):
            def respond(env):
                yield env.timeout(1.0)
                nodes[1].reply(msg, MessageType.PONG, {"v": "late"})
            env.process(respond(env))

        nodes[1].on(MessageType.PING, slow_handler)

        def client(env):
            reply = yield nodes[0].submit(1, MessageType.PING, policy=ONE_WINDOW)
            assert reply is None  # the window expired first

        env.process(client(env))
        env.run()
        assert late == ["late"]

    def test_generator_handler_runs_as_process(self, env, net):
        network, nodes = net
        done = []

        def gen_handler(msg):
            yield env.timeout(0.5)
            done.append(env.now)

        nodes[1].on(MessageType.PING, gen_handler)
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert done and done[0] == pytest.approx(network.topology.delay(0, 1) + 0.5)

    def test_duplicate_handler_registration_rejected(self, env, net):
        network, nodes = net
        nodes[0].on(MessageType.PING, lambda m: None)
        with pytest.raises(ValueError):
            nodes[0].on(MessageType.PING, lambda m: None)


class TestClockPropagation:
    def test_tfa_clock_piggybacks_and_advances(self, env, net):
        network, nodes = net
        nodes[0].clock.advance_to(7)
        nodes[1].on(MessageType.PING, lambda m: None)
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert nodes[1].clock.tfa_clock == 7

    def test_smaller_clock_does_not_regress(self, env, net):
        network, nodes = net
        nodes[1].clock.advance_to(10)
        nodes[1].on(MessageType.PING, lambda m: None)
        nodes[0].send(1, MessageType.PING)  # clock 0
        env.run()
        assert nodes[1].clock.tfa_clock == 10


class TestNodeClock:
    def test_wall_time_with_skew_and_drift(self):
        from repro.net import NodeClock

        clk = NodeClock(0)
        clk.skew = 0.5
        clk.drift = 0.1
        assert clk.wall_time(10.0) == pytest.approx(10.0 * 1.1 + 0.5)

    def test_randomised_clock_within_bounds(self):
        from repro.net import NodeClock

        rng = RngRegistry(seed=0).stream("clk")
        clk = NodeClock(1, rng=rng, max_skew=0.2, max_drift=1e-3)
        assert abs(clk.skew) <= 0.2
        assert abs(clk.drift) <= 1e-3

    def test_tick_monotonic(self):
        from repro.net import NodeClock

        clk = NodeClock(0)
        assert clk.tick() == 1
        assert clk.tick() == 2
        assert clk.advance_to(1) is False
        assert clk.advance_to(5) is True
        assert clk.tfa_clock == 5
