"""The endpoint registry, the serve() binding, and the typed client."""

import pytest

from repro.net import MessageType, Network, Node, Topology
from repro.net.topology import TopologyKind
from repro.rpc import (
    ENDPOINTS,
    Endpoint,
    EndpointError,
    EndpointRegistry,
    PeerUnreachable,
    RetryPolicy,
    RpcClient,
    serve,
)
from repro.sim import RngRegistry


@pytest.fixture
def net2(env):
    rngs = RngRegistry(seed=7)
    topo = Topology(2, rngs.stream("topology"), kind=TopologyKind.UNIFORM)
    network = Network(env, topo)
    return [Node(env, network, i) for i in range(2)]


def drive(env, gen):
    box = {}

    def proc():
        box["out"] = yield from gen

    env.process(proc())
    env.run()
    return box["out"]


class TestRegistry:
    def test_every_protocol_rpc_is_catalogued(self):
        names = {ep.name for ep in ENDPOINTS}
        assert names >= {
            "dir_lookup", "dir_update", "retrieve", "handoff",
            "read_validate", "commit_publish", "lease_renew",
            "orphan_return", "ping",
        }

    def test_request_type_roundtrip(self):
        ep = ENDPOINTS.get("dir_lookup")
        assert ep.request is MessageType.DIR_LOOKUP
        assert ep.reply is MessageType.DIR_LOOKUP_REPLY
        assert ep.is_rpc

    def test_handoff_is_one_way(self):
        ep = ENDPOINTS.get("handoff")
        assert ep.reply is None and not ep.is_rpc

    def test_unknown_name_raises(self):
        with pytest.raises(EndpointError, match="unknown endpoint"):
            ENDPOINTS.get("teleport")

    def test_duplicate_registration_rejected(self):
        reg = EndpointRegistry()
        reg.add(Endpoint("ping", MessageType.PING, MessageType.PONG))
        with pytest.raises(ValueError, match="already registered"):
            reg.add(Endpoint("ping", MessageType.DIR_LOOKUP, None))
        with pytest.raises(ValueError, match="already bound"):
            reg.add(Endpoint("ping2", MessageType.PING, None))

    def test_check_request_names_missing_keys(self):
        ep = ENDPOINTS.get("retrieve")
        with pytest.raises(EndpointError, match="txid"):
            ep.check_request({"oid": "x", "mode": "r", "ets": (0, 0, 0)})
        ep.check_request({"oid": "x", "txid": "t", "mode": "r",
                          "ets": (0, 0, 0)})


class TestServe:
    def test_handler_payload_autoreplies_with_endpoint_type(self, env, net2):
        served = []
        serve(net2[1], "ping", lambda msg: served.append(msg) or {"echo": 1})
        reply = drive(env, net2[0].request(1, MessageType.PING, {}))
        assert reply.mtype is MessageType.PONG
        assert reply.payload == {"echo": 1}
        assert served[0].src == 0

    def test_none_withholds_the_reply(self, env, net2):
        serve(net2[1], "ping", lambda msg: None)
        client = RpcClient(
            net2[0],
            policy=RetryPolicy(timeout=0.05, max_retries=1, backoff_cap=0.05),
        )
        with pytest.raises(PeerUnreachable) as err:
            drive(env, client.call(1, "ping"))
        assert err.value.dst == 1
        assert err.value.attempts == 2
        assert client.failures == 1


class TestClient:
    def test_call_validates_payload_shape(self, env, net2):
        client = RpcClient(net2[0])
        with pytest.raises(EndpointError, match="missing"):
            drive(env, client.call(1, "dir_lookup", {}))

    def test_call_refuses_one_way_endpoints(self, env, net2):
        client = RpcClient(net2[0])
        with pytest.raises(EndpointError, match="one-way"):
            drive(env, client.call(1, "handoff", {"oid": "x", "txid": "t"}))

    def test_success_counts_and_traces(self, env, net2):
        from repro.sim import Tracer

        tracer = Tracer(enabled=True, categories={"rpc.issue", "rpc.done"})
        serve(net2[1], "ping", lambda msg: {})
        client = RpcClient(net2[0], tracer=tracer)
        drive(env, client.call(1, "ping"))
        assert client.calls == 1 and client.failures == 0
        assert [r.category for r in tracer.records()] == [
            "rpc.issue", "rpc.done"
        ]
        done = tracer.records("rpc.done")[0]
        assert done.detail("ok") is True and done.detail("retries") == 0
