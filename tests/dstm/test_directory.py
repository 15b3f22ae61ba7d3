"""Unit tests for directory shards (the CC protocol's location service)."""

import pytest

from repro.dstm.directory import DirectoryShard
from repro.net import MessageType, Network, Node, Topology
from repro.sim import RngRegistry


@pytest.fixture
def setup(env):
    topo = Topology(3, RngRegistry(seed=5).stream("topo"))
    network = Network(env, topo)
    nodes = [Node(env, network, i) for i in range(3)]
    shards = [DirectoryShard(n) for n in nodes]
    return network, nodes, shards


class TestLocalApi:
    def test_register_and_lookup(self, setup):
        _net, _nodes, shards = setup
        shards[0].register("o1", owner=2, version=5)
        assert shards[0].lookup("o1") == (2, 5)
        assert shards[0].owner_of("o1") == 2
        assert shards[0].registered_version("o1") == 5
        assert "o1" in shards[0]
        assert len(shards[0]) == 1

    def test_register_keeps_version_when_none(self, setup):
        _net, _nodes, shards = setup
        shards[0].register("o1", owner=1, version=7)
        shards[0].register("o1", owner=2, version=None)
        assert shards[0].lookup("o1") == (2, 7)

    def test_register_new_with_none_version_defaults_zero(self, setup):
        _net, _nodes, shards = setup
        shards[0].register("o1", owner=1, version=None)
        assert shards[0].registered_version("o1") == 0

    def test_unknown_object(self, setup):
        _net, _nodes, shards = setup
        assert shards[0].lookup("missing") is None
        assert shards[0].owner_of("missing") is None


class TestMessageHandlers:
    def _rpc(self, env, node, dst, mtype, payload):
        def client(env):
            reply = yield node.submit(dst, mtype, payload)
            return reply.payload

        proc = env.process(client(env))
        return env.run(until=proc)

    def test_lookup_known(self, env, setup):
        _net, nodes, shards = setup
        shards[1].register("o1", owner=2, version=3)
        p = self._rpc(env, nodes[0], 1, MessageType.DIR_LOOKUP, {"oid": "o1"})
        assert p["known"] and p["owner"] == 2 and p["version"] == 3

    def test_lookup_unknown(self, env, setup):
        _net, nodes, _shards = setup
        p = self._rpc(env, nodes[0], 1, MessageType.DIR_LOOKUP, {"oid": "nope"})
        assert not p["known"]
        assert p["owner"] is None

    def test_update_registers(self, env, setup):
        _net, nodes, shards = setup
        p = self._rpc(env, nodes[0], 1, MessageType.DIR_UPDATE,
                      {"oid": "o1", "owner": 0, "version": 9})
        assert p["oid"] == "o1"
        assert shards[1].lookup("o1") == (0, 9)

    def test_validate_matching_version(self, env, setup):
        _net, nodes, shards = setup
        shards[1].register("o1", owner=0, version=4)
        p = self._rpc(env, nodes[0], 1, MessageType.READ_VALIDATE,
                      {"oid": "o1", "version": 4})
        assert p["valid"]

    def test_validate_stale_version(self, env, setup):
        _net, nodes, shards = setup
        shards[1].register("o1", owner=0, version=5)
        p = self._rpc(env, nodes[0], 1, MessageType.READ_VALIDATE,
                      {"oid": "o1", "version": 4})
        assert not p["valid"]
        assert p["registered_version"] == 5

    def test_validate_unregistered_is_valid(self, env, setup):
        _net, nodes, _shards = setup
        p = self._rpc(env, nodes[0], 1, MessageType.READ_VALIDATE,
                      {"oid": "new", "version": 0})
        assert p["valid"]
