"""Tests for the per-node serial message server (congestion model)."""

import pytest

from repro.net import MessageType, Network, Node, Topology
from repro.sim import Environment, RngRegistry


def build(env, n=3, msg_process_time=0.0):
    topo = Topology(n, RngRegistry(seed=4).stream("topo"))
    net = Network(env, topo)
    nodes = [
        Node(env, net, i, msg_process_time=msg_process_time) for i in range(n)
    ]
    return net, nodes


class TestSerialServer:
    def test_zero_service_time_dispatches_inline(self, env):
        net, nodes = build(env, msg_process_time=0.0)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(env.now))
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert seen == [net.topology.delay(0, 1)]
        assert nodes[1].messages_processed == 0  # server bypassed

    def test_service_time_delays_dispatch(self, env):
        net, nodes = build(env, msg_process_time=0.01)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(env.now))
        nodes[0].send(1, MessageType.PING)
        env.run()
        assert seen == [pytest.approx(net.topology.delay(0, 1) + 0.01)]
        assert nodes[1].messages_processed == 1

    def test_burst_queues_serially(self, env):
        net, nodes = build(env, msg_process_time=0.01)
        seen = []
        nodes[2].on(MessageType.PING, lambda m: seen.append(env.now))
        for _ in range(5):
            nodes[0].send(2, MessageType.PING)
        env.run()
        # All five arrive together but dispatch 10ms apart.
        gaps = [b - a for a, b in zip(seen, seen[1:])]
        assert all(g == pytest.approx(0.01) for g in gaps)
        assert nodes[2].total_queueing_delay > 0.01 * 4

    def test_server_idles_and_restarts(self, env):
        net, nodes = build(env, msg_process_time=0.005)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(env.now))

        def driver(env):
            nodes[0].send(1, MessageType.PING)
            yield env.timeout(1.0)  # let the server drain and go idle
            nodes[0].send(1, MessageType.PING)

        env.process(driver(env))
        env.run()
        assert len(seen) == 2
        assert nodes[1].messages_processed == 2

    def test_fifo_order_preserved_under_service(self, env):
        net, nodes = build(env, msg_process_time=0.002)
        seen = []
        nodes[1].on(MessageType.PING, lambda m: seen.append(m.payload["i"]))
        for i in range(8):
            nodes[0].send(1, MessageType.PING, {"i": i})
        env.run()
        assert seen == list(range(8))

    def test_rpc_still_works_through_server(self, env):
        net, nodes = build(env, msg_process_time=0.003)
        nodes[1].on(
            MessageType.PING,
            lambda m: nodes[1].reply(m, MessageType.PONG, {"ok": True}),
        )

        def client(env):
            reply = yield from nodes[0].request(1, MessageType.PING)
            return reply.payload["ok"]

        proc = env.process(client(env))
        assert env.run(until=proc) is True


SVC = 0.004


def scripted_run(env):
    """A fixed script against node 3 of a 4-node cluster: bursts from
    three senders, an idle gap, a second burst.  Returns ``(net, nodes,
    arrivals, served)``; ``arrivals`` are ``(arrive, i)`` in send order,
    with the arrival time computed as the kernel computes it."""
    net, nodes = build(env, n=4, msg_process_time=SVC)
    arrivals, served = [], []

    def handler(msg):
        served.append((env.now, msg.payload["i"]))

    nodes[3].on(MessageType.PING, handler)

    def send(src, i):
        msg = nodes[src].send(3, MessageType.PING, {"i": i})
        arrivals.append((msg.sent_at + net.topology.delay(src, 3), i))

    def driver(env):
        i = 0
        for gap, burst in [(0.0, 3), (0.001, 2), (0.0005, 4), (0.25, 1), (0.002, 5)]:
            yield env.timeout(gap)
            for k in range(burst):
                send(k % 3, i)
                i += 1

    env.process(driver(env), name="driver")
    env.run()
    return net, nodes, arrivals, served


class TestCallbackChain:
    """The inbox server as a state machine: what it costs the kernel and
    when each message completes."""

    def test_burst_costs_one_timeout_per_message_and_no_process(self, env):
        from repro.prof.kernel import KernelProfiler

        profiler = KernelProfiler().install(env)
        net, nodes = build(env, msg_process_time=SVC)
        nodes[2].on(MessageType.PING, lambda m: None)
        k = 7
        for _ in range(k):
            nodes[0].send(2, MessageType.PING)
        env.run()
        assert nodes[2].messages_processed == k
        assert profiler.counts == {
            ("Timeout", "Network"): k, ("Timeout", "n*.inbox"): k,
        }
        # no bootstrap Event, no Process termination: nothing but the
        # link delay and the service period of each message
        assert profiler.event_counts == {"Timeout": 2 * k}
        assert env.events_processed == 2 * k

    def test_completion_times_follow_the_reference_recurrence(self, env):
        _, _, arrivals, served = scripted_run(env)
        # stable sort: the kernel breaks arrival-time ties in send order
        expected, done = [], float("-inf")
        for arrive, i in sorted(arrivals, key=lambda a: a[0]):
            done = max(arrive, done) + SVC
            expected.append((done, i))
        assert served == expected  # exact floats, FIFO order

    def test_accounting_matches_the_process_per_burst_server(self, env):
        """Recorded at commit 3cd653f (generator server) for this script."""
        _, nodes, arrivals, _ = scripted_run(env)
        assert nodes[3].messages_processed == len(arrivals) == 15
        assert repr(nodes[3].total_queueing_delay) == "0.10964426530707791"
        assert repr(env.now) == "0.3135"

    def test_send_to_self_during_dispatch_queues_behind_the_chain(self, env):
        """local_delay=0: the self-send arrives at the dispatch instant,
        while the server is mid-chain; it must not start a second one."""
        net, nodes = build(env, msg_process_time=SVC)
        served = []

        def handler(msg):
            served.append((env.now, msg.payload["i"]))
            if msg.payload["i"] == 0:
                nodes[1].send(1, MessageType.PING, {"i": 2})

        nodes[1].on(MessageType.PING, handler)
        nodes[0].send(1, MessageType.PING, {"i": 0})
        nodes[0].send(1, MessageType.PING, {"i": 1})
        env.run()
        t0 = net.topology.delay(0, 1) + SVC
        assert served == [(t0, 0), (t0 + SVC, 1), (t0 + SVC + SVC, 2)]
        assert nodes[1].messages_processed == 3

    def test_send_to_self_from_the_last_message_restarts_the_server(self, env):
        net, nodes = build(env, msg_process_time=SVC)
        served = []

        def handler(msg):
            served.append((env.now, msg.payload["i"]))
            if msg.payload["i"] == 0:
                nodes[1].send(1, MessageType.PING, {"i": 1})

        nodes[1].on(MessageType.PING, handler)
        nodes[0].send(1, MessageType.PING, {"i": 0})
        env.run()
        t0 = net.topology.delay(0, 1) + SVC
        assert served == [(t0, 0), (t0 + SVC, 1)]
        assert env.events_processed == 4  # two link delays, two services

    def test_handler_exception_surfaces_with_its_type(self, env):
        net, nodes = build(env, msg_process_time=SVC)

        class Boom(Exception):
            pass

        def handler(msg):
            raise Boom("handler failed")

        nodes[1].on(MessageType.PING, handler)
        nodes[0].send(1, MessageType.PING)
        with pytest.raises(Boom, match="handler failed"):
            env.run()


def test_service_events_on_a_real_cell_are_two_per_message(tmp_path):
    """Counters-mode profile of the pinned dht cell: the inbox shows up
    as service Timeouts only, and the net layer's events (link delays +
    service periods) stay within two per message."""
    from repro.core import ClusterConfig, SchedulerKind
    from repro.core.experiment import run_experiment

    folded = tmp_path / "run.folded"
    cfg = ClusterConfig(
        num_nodes=6, seed=3, scheduler=SchedulerKind.RTS, cl_threshold=4,
        prof=dict(enabled=True, folded_path=str(folded)),
    )
    result = run_experiment("dht", cfg, read_fraction=0.9,
                            workers_per_node=2, horizon=8.0)
    counts = {}
    for line in folded.read_text().splitlines():
        stack, weight = line.rsplit(" ", 1)
        _, kind, site = stack.split(";")
        counts[(kind, site)] = int(weight)
    assert ("Event", "n*.inbox") not in counts
    assert ("Process", "n*.inbox") not in counts
    assert 0 < counts[("Timeout", "n*.inbox")] <= result.messages_sent
    net_events = sum(n for (_, site), n in counts.items()
                     if site == "Network" or site.endswith(".inbox"))
    assert net_events / result.messages_sent <= 2.0
