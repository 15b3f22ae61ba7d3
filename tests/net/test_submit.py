"""``Node.submit``: a request whose handle is its reply signal."""

from repro.core.cluster import reset_run_ids
from repro.net import MessageType, Network, Node, Topology
from repro.rpc import RpcClient
from repro.sim import Environment, RngRegistry

SVC = 0.004


def build(env, n=2):
    topo = Topology(n, RngRegistry(seed=4).stream("topo"))
    net = Network(env, topo)
    nodes = [Node(env, net, i, msg_process_time=SVC) for i in range(n)]
    nodes[1].on(
        MessageType.PING,
        lambda m: nodes[1].reply(m, MessageType.PONG, {"echo": m.payload.get("i")}),
    )
    return net, nodes


class TestReplyEvent:
    def test_pending_after_the_send_then_succeeds_with_the_reply(self, env):
        net, nodes = build(env)
        reply = nodes[0].submit(1, MessageType.PING, {"i": 7})
        assert net.messages_sent.value == 1
        assert not reply.triggered
        assert list(nodes[0]._pending_replies.values()) == [reply]

        seen = []
        reply.then(lambda _msg: seen.append(env.now))
        env.run()
        # request: link + service at 1; reply: link + service at 0
        done = net.topology.delay(0, 1) + SVC
        done = done + net.topology.delay(1, 0) + SVC
        assert seen == [done]
        msg = reply.value
        assert (msg.mtype, msg.src, msg.dst) == (MessageType.PONG, 1, 0)
        assert msg.payload == {"echo": 7}
        assert nodes[0]._pending_replies == {}

    def test_untriggered_until_the_reply_has_been_served(self, env):
        net, nodes = build(env)
        reply = nodes[0].submit(1, MessageType.PING)
        arrives = net.topology.delay(0, 1) + SVC + net.topology.delay(1, 0)
        env.run(until=arrives + SVC / 2)  # in node 0's inbox, not yet served
        assert nodes[0]._inbox.busy and not reply.triggered
        env.run()
        assert reply.processed

    def test_ping_pong_matches_the_blocking_request(self):
        """Same script through the blocking ``RpcClient.call`` and through
        ``submit``: same final time, same reply message id, same kernel
        events — the blocking call is one yield on the reply signal."""

        def script(env, nodes, blocking):
            got = []
            client = RpcClient(nodes[0])
            for i in range(3):
                if blocking:
                    msg = yield from client.call(1, "ping", {"i": i})
                else:
                    msg = yield nodes[0].submit(1, MessageType.PING, {"i": i})
                got.append((msg.msg_id, msg.payload["echo"]))
                yield env.timeout(0.001)
            return got

        outcomes = []
        for blocking in (True, False):
            reset_run_ids()
            env = Environment()
            _, nodes = build(env)
            proc = env.process(script(env, nodes, blocking))
            env.run()
            outcomes.append((env.now, proc.value, env.events_processed))
        assert outcomes[0] == outcomes[1]
        assert [echo for _, echo in outcomes[0][1]] == [0, 1, 2]

    def test_duplicate_reply_falls_through_to_the_handler(self, env):
        _, nodes = build(env)
        extra = []
        nodes[0].on(MessageType.PONG, lambda m: extra.append(m.payload))
        requests = []
        nodes[1]._handlers.clear()

        def answer_twice(m):
            requests.append(m.msg_id)
            nodes[1].reply(m, MessageType.PONG, {"copy": 1})
            nodes[1].reply(m, MessageType.PONG, {"copy": 2})

        nodes[1].on(MessageType.PING, answer_twice)
        reply = nodes[0].submit(1, MessageType.PING)
        env.run()
        assert reply.value.payload == {"copy": 1}
        assert reply.value.reply_to == requests[0]
        assert extra == [{"copy": 2}]
        assert nodes[0].late_replies == 0
