"""The non-blocking client call and eager validation."""

import pytest

from repro.net import Network, Node, Topology
from repro.net.topology import TopologyKind
from repro.rpc import (
    ENDPOINTS,
    EndpointError,
    RetryPolicy,
    RpcClient,
    serve,
)
from repro.sim import RngRegistry, Tracer


@pytest.fixture
def net2(env):
    rngs = RngRegistry(seed=7)
    topo = Topology(2, rngs.stream("topology"), kind=TopologyKind.UNIFORM)
    network = Network(env, topo)
    return network, [Node(env, network, i) for i in range(2)]


class TestEagerValidation:
    """A malformed call dies where it is written, not at the first
    ``next()`` of a generator some process picks up later."""

    def test_one_way_endpoint_raises_at_the_call(self, net2):
        network, nodes = net2
        client = RpcClient(nodes[0])
        with pytest.raises(EndpointError, match="one-way"):
            client.call(1, "handoff", {"oid": "x", "txid": "t"})
        with pytest.raises(EndpointError, match="one-way"):
            client.submit(1, "handoff", {"oid": "x", "txid": "t"})
        assert network.messages_sent.value == 0 and client.calls == 0

    def test_missing_key_raises_at_the_call(self, net2):
        network, nodes = net2
        client = RpcClient(nodes[0])
        with pytest.raises(EndpointError, match=r"missing \['version'\]"):
            client.call(1, "read_validate", {"oid": "x"})
        with pytest.raises(EndpointError, match=r"missing \['oid', 'version'\]"):
            client.submit(1, ENDPOINTS.get("read_validate"), None)
        assert network.messages_sent.value == 0 and client.calls == 0

    def test_a_resolved_endpoint_and_its_name_are_the_same_call(self, env, net2):
        network, nodes = net2
        serve(nodes[1], "ping", lambda msg: {"ok": True})
        client = RpcClient(nodes[0])
        by_name = client.submit(1, "ping")
        by_endpoint = client.submit(1, ENDPOINTS.get("ping"))
        env.run()
        assert by_name.value.payload == by_endpoint.value.payload == {"ok": True}
        assert client.calls == 2 and network.messages_sent.value == 4


class TestSubmit:
    def test_refuses_a_client_with_a_retry_policy(self, net2):
        network, nodes = net2
        client = RpcClient(
            nodes[0], policy=RetryPolicy(timeout=0.05, max_retries=1)
        )
        with pytest.raises(EndpointError, match="RetryPolicy"):
            client.submit(1, "ping")
        assert network.messages_sent.value == 0 and client.calls == 0

    def test_traces_issue_at_the_send_and_done_at_the_reply(self, env, net2):
        _, nodes = net2
        tracer = Tracer(enabled=True, categories={"rpc.issue", "rpc.done"})
        serve(nodes[1], "ping", lambda msg: {})
        client = RpcClient(nodes[0], tracer=tracer)
        reply = client.submit(1, "ping")
        assert [r.category for r in tracer.records()] == ["rpc.issue"]
        order = []
        reply.callbacks.append(lambda ev: order.append(len(tracer.records())))
        env.run()
        # rpc.done is on the reply event ahead of any caller's callback,
        # as the blocking call emits it before returning to its caller
        assert order == [2]
        issue, done = tracer.records()
        assert (issue.time, done.time) == (0.0, env.now)
        assert issue.details == (("dst", 1), ("node", "n0"))
        assert done.detail("ok") is True and done.detail("retries") == 0

    def test_blocking_call_traces_the_same_records(self, env, net2):
        _, nodes = net2
        serve(nodes[1], "ping", lambda msg: {})
        records = []
        for blocking in (True, False):
            tracer = Tracer(enabled=True, categories={"rpc.issue", "rpc.done"})
            client = RpcClient(nodes[0], tracer=tracer)
            start = env.now

            def caller():
                if blocking:
                    yield from client.call(1, "ping")
                else:
                    yield client.submit(1, "ping")

            env.process(caller())
            env.run()
            records.append([
                (r.time - start, r.category, r.subject, r.details)
                for r in tracer.records()
            ])
        assert records[0] == records[1] and len(records[0]) == 2
