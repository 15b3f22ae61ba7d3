"""Tests for the Arrow distributed directory protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.arrow import ArrowDirectory, build_spanning_tree
from repro.net import Network, Node, Topology
from repro.sim import Environment, RngRegistry


def build(env, n=6, seed=3):
    topo = Topology(n, RngRegistry(seed=seed).stream("topo"))
    net = Network(env, topo)
    nodes = [Node(env, net, i) for i in range(n)]
    tree = build_spanning_tree(topo)
    dirs = [ArrowDirectory(node, tree) for node in nodes]
    return net, nodes, dirs


class TestSpanningTree:
    def test_tree_spans_all_nodes(self, env):
        _net, _nodes, dirs = build(env, n=9)
        tree = dirs[0].tree
        assert set(tree) == set(range(9))
        edges = sum(len(v) for v in tree.values())
        assert edges == 2 * 8  # n-1 undirected edges

    def test_next_hop_walks_the_tree(self, env):
        _net, _nodes, dirs = build(env, n=7)
        for d in dirs:
            for target in range(7):
                if target == d.node.node_id:
                    continue
                hop = d._next_hop_toward(target)
                assert hop in d.neighbors


class TestBasicProtocol:
    def test_create_initialises_arrows(self, env):
        _net, _nodes, dirs = build(env)
        dirs[2].create("obj", dirs)
        assert dirs[2].holds("obj")
        assert dirs[2].arrow_of("obj") == 2
        for d in dirs:
            if d is not dirs[2]:
                assert not d.holds("obj")
                assert d.arrow_of("obj") in d.neighbors

    def test_find_from_holder_returns_immediately(self, env):
        _net, _nodes, dirs = build(env)
        dirs[0].create("obj", dirs)

        def driver(e):
            yield from dirs[0].find("obj")
            return e.now

        proc = env.process(driver(env))
        assert env.run(until=proc) == 0.0

    def test_find_and_release_transfers_token(self, env):
        _net, _nodes, dirs = build(env)
        dirs[0].create("obj", dirs, value="payload")

        def requester(e):
            got = yield from dirs[4].find("obj")
            return (e.now, got)

        proc = env.process(requester(env))

        def releaser(e):
            yield e.timeout(1.0)
            dirs[0].release("obj", value="payload")

        env.process(releaser(env))
        when, got = env.run(until=proc)
        assert when > 1.0
        assert got == "payload"
        assert dirs[4].holds("obj")
        assert not dirs[0].holds("obj")

    def test_release_without_successor_keeps_token(self, env):
        _net, _nodes, dirs = build(env)
        dirs[1].create("obj", dirs)
        assert dirs[1].release("obj") is None
        assert dirs[1].holds("obj")

    def test_release_without_holding_rejected(self, env):
        _net, _nodes, dirs = build(env)
        dirs[1].create("obj", dirs)
        with pytest.raises(ValueError):
            dirs[2].release("obj")


class TestDistributedQueuing:
    def test_concurrent_finds_serialise_into_one_queue(self, env):
        """Every requester eventually gets the token exactly once."""
        _net, _nodes, dirs = build(env, n=8)
        dirs[0].create("obj", dirs)
        grants = []

        def requester(idx):
            def gen(e):
                yield from dirs[idx].find("obj")
                grants.append((e.now, idx))
                yield e.timeout(0.05)  # hold briefly
                dirs[idx].release("obj")
            return gen

        procs = [env.process(requester(i)(env)) for i in (3, 5, 1, 7, 2)]

        def kick(e):
            yield e.timeout(0.2)
            dirs[0].release("obj")

        env.process(kick(env))
        env.run(until=env.all_of(procs))
        assert sorted(i for _, i in grants) == [1, 2, 3, 5, 7]
        times = [t for t, _ in grants]
        assert times == sorted(times)
        holders = [d.node.node_id for d in dirs if d.holds("obj")]
        assert len(holders) == 1

    @given(seed=st.integers(min_value=0, max_value=500),
           n=st.integers(min_value=3, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_queue_property_random_topologies(self, seed, n):
        """On any topology, R concurrent finds each receive the token
        exactly once and exactly one holder remains."""
        env = Environment()
        _net, _nodes, dirs = build(env, n=n, seed=seed)
        dirs[0].create("obj", dirs)
        requesters = list(range(1, n))
        grants = []

        def requester(idx):
            def gen(e):
                yield from dirs[idx].find("obj")
                grants.append(idx)
                dirs[idx].release("obj")
            return gen

        procs = [env.process(requester(i)(env)) for i in requesters]

        def kick(e):
            yield e.timeout(0.1)
            dirs[0].release("obj")

        env.process(kick(env))
        env.run(until=env.all_of(procs))
        assert sorted(grants) == requesters
        assert sum(d.holds("obj") for d in dirs) == 1

    def test_sequential_migrations_flip_arrows_consistently(self, env):
        """After each transfer the arrows still lead everyone to the tail."""
        _net, _nodes, dirs = build(env, n=6)
        dirs[0].create("obj", dirs)
        order = [3, 1, 5, 2]

        def driver(e):
            holder = 0
            for nxt in order:
                proc = e.process(dirs[nxt].find("obj"), name=f"find{nxt}")
                # Let the find splice in, then release from current holder.
                yield e.timeout(0.5)
                dirs[holder].release("obj")
                yield proc
                holder = nxt
            return holder

        proc = env.process(driver(env))
        final = env.run(until=proc)
        assert final == 2
        assert dirs[2].holds("obj")

        # Arrow invariant at quiescence: following arrows from any node
        # terminates at the holder/tail.
        for d in dirs:
            at = d
            seen = set()
            while at.arrow_of("obj") != at.node.node_id:
                assert at.node.node_id not in seen, "arrow cycle!"
                seen.add(at.node.node_id)
                at = dirs[at.arrow_of("obj")]
            assert at.node.node_id == 2
