"""Unit tests for the recovery half: RPC retry/backoff, directory leases,
version fencing, and crash-abort accounting."""

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, FaultConfig
from repro.dstm.directory import DirectoryShard
from repro.dstm.errors import AbortReason
from repro.dstm.objects import home_node
from repro.faults import CrashWindow, RpcPolicy
from repro.net import MessageType, Network, Node, Topology
from repro.net.topology import TopologyKind
from repro.rpc import PeerUnreachable
from repro.sim import RngRegistry


class TestRpcPolicy:
    def test_timeout_ladder_grows_to_cap(self):
        pol = RpcPolicy(timeout=0.1, max_retries=4, backoff_factor=2.0,
                        backoff_cap=0.5)
        assert [pol.nth_timeout(i) for i in range(5)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5]
        )
        assert pol.worst_case_wait() == pytest.approx(1.7)

    def test_from_config_maps_fields(self):
        fc = FaultConfig(rpc_timeout=0.3, rpc_max_retries=2,
                         rpc_backoff_factor=3.0, rpc_backoff_cap=1.2)
        pol = RpcPolicy.from_config(fc)
        assert (pol.timeout, pol.max_retries) == (0.3, 2)
        assert pol.nth_timeout(1) == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            RpcPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RpcPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RpcPolicy(timeout=0.5, backoff_cap=0.4)


def silent_peer_cluster(**fault_kw):
    """Two-node cluster where node 1 is crashed for the whole run."""
    fc = FaultConfig(enabled=True, **fault_kw)
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=1, faults=fc))
    cluster.fault_plan.crashes.append(CrashWindow(1, 0.0, math.inf))
    return cluster


class TestProxyRetries:
    def test_backoff_timing_and_counters(self):
        cluster = silent_peer_cluster(
            rpc_timeout=0.1, rpc_max_retries=3, rpc_backoff_factor=2.0,
            rpc_backoff_cap=0.4,
        )
        proxy = cluster.proxies[0]
        outcome = {}

        def proc():
            try:
                yield from proxy.rpc_client.call(1, "dir_lookup", {"oid": "x"})
            except PeerUnreachable as exc:
                outcome["at"] = cluster.env.now
                outcome["exc"] = exc

        cluster.spawn(proc())
        cluster.run(until=5.0)
        # 0.1 + 0.2 + 0.4 + 0.4: the growing timeout IS the backoff.
        assert outcome["at"] == pytest.approx(
            proxy.rpc_policy.worst_case_wait()
        )
        assert "4x" in str(outcome["exc"])
        assert cluster.metrics.rpc_timeouts.value == 4
        assert cluster.metrics.rpc_retries.value == 3

    def test_reply_before_timeout_costs_nothing(self):
        fc = FaultConfig(enabled=True, rpc_timeout=5.0, rpc_backoff_cap=5.0)
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=1, faults=fc))
        cluster.alloc("x", 7, node=0)
        proxy = cluster.proxies[1 - home_node("x", 2)]
        got = {}

        def proc():
            reply = yield from proxy.rpc_client.call(
                home_node("x", 2), "dir_lookup", {"oid": "x"}
            )
            got["payload"] = reply.payload

        cluster.spawn(proc())
        cluster.run(until=2.0)
        assert got["payload"]["known"]
        assert cluster.metrics.rpc_timeouts.value == 0


@pytest.fixture
def dirnet(env):
    rngs = RngRegistry(seed=3)
    topo = Topology(2, rngs.stream("topology"), kind=TopologyKind.UNIFORM)
    network = Network(env, topo)
    nodes = [Node(env, network, i) for i in range(2)]
    shard = DirectoryShard(nodes[0], lease_duration=1.0, reclaim_grace=0.5)
    return nodes, shard


def advance(env, dt):
    """Let ``dt`` simulated seconds pass."""
    def proc():
        yield env.timeout(dt)

    env.process(proc())
    env.run()


def ask(env, node, dst, mtype, payload):
    box = {}

    def proc():
        reply = yield from node.request(dst, mtype, payload)
        box["p"] = reply.payload

    env.process(proc())
    env.run()
    return box["p"]


class TestVersionFence:
    def test_stale_version_nacked(self, env, dirnet):
        nodes, shard = dirnet
        shard.register("x", owner=1, version=5)
        p = ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "x", "owner": 1, "version": 4})
        assert p["ok"] is False
        assert p["registered_version"] == 5

    def test_same_owner_retry_is_idempotent(self, env, dirnet):
        nodes, shard = dirnet
        shard.register("x", owner=1, version=5)
        p = ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "x", "owner": 1, "version": 5})
        assert p["ok"] is True

    def test_equal_version_from_other_owner_fenced(self, env, dirnet):
        nodes, shard = dirnet
        shard.register("x", owner=0, version=5)
        p = ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "x", "owner": 1, "version": 5})
        assert p["ok"] is False

    def test_withdraw_honoured_only_by_registered_owner(self, env, dirnet):
        nodes, shard = dirnet
        shard.register("x", owner=1, version=6)
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "x", "owner": 1, "version": 5, "withdraw": True})
        assert shard.registered_version("x") == 5
        # A superseded withdrawer is ignored.
        shard.register("x", owner=0, version=9)
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "x", "owner": 1, "version": 5, "withdraw": True})
        assert shard.registered_version("x") == 9

    def test_late_duplicate_withdraw_cannot_roll_back_newer_commit(
        self, env, dirnet
    ):
        """The livelock scenario: commit A registers v1, aborts, withdraws;
        commit B (same owner, fresh txid) registers v1 and succeeds.  A
        duplicated copy of A's withdraw arriving late must not roll the
        registry back under B's committed copy."""
        nodes, shard = dirnet
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "x", "owner": 1, "version": 1, "txid": "txA"})
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "x", "owner": 1, "version": 0, "withdraw": True,
             "txid": "txA"})
        assert shard.registered_version("x") == 0
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "x", "owner": 1, "version": 1, "txid": "txB"})
        assert shard.registered_version("x") == 1
        # A's duplicated withdraw, delivered late: txid mismatch, ignored.
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "x", "owner": 1, "version": 0, "withdraw": True,
             "txid": "txA"})
        assert shard.registered_version("x") == 1

    def test_late_duplicate_registration_of_withdrawn_txid_fenced(
        self, env, dirnet
    ):
        """A duplicated copy of a registration the committer already
        withdrew must not resurrect it: the registry would sit ahead of
        every committed copy until the object's next write."""
        nodes, shard = dirnet
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "w", "owner": 1, "version": 3, "txid": "txD"})
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "w", "owner": 1, "version": 2, "withdraw": True,
             "txid": "txD"})
        assert shard.registered_version("w") == 2
        p = ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "w", "owner": 1, "version": 3, "txid": "txD"})
        assert p["ok"] is False
        assert shard.registered_version("w") == 2
        # A *fresh* attempt at the same version is a different txid: fine.
        p = ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "w", "owner": 1, "version": 3, "txid": "txE"})
        assert p["ok"] is True

    def test_stale_ownership_transfer_fenced(self, env, dirnet):
        """An ownership-transfer registration (version=None) carrying a
        copy the registry has moved past — a resurrected grant after a
        lease reclaim — must not take the entry over."""
        nodes, shard = dirnet
        shard.register("t", owner=0, version=5, value="v5", value_version=5)
        p = ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "t", "owner": 1, "version": None,
                 "value": "old", "value_version": 3})
        assert p["ok"] is False
        assert shard.owner_of("t") == 0
        # A transfer of the *current* copy goes through.
        p = ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "t", "owner": 1, "version": None,
                 "value": "v5", "value_version": 5})
        assert p["ok"] is True
        assert shard.owner_of("t") == 1

    def test_duplicate_withdraw_is_idempotent(self, env, dirnet):
        nodes, shard = dirnet
        ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
            {"oid": "y", "owner": 1, "version": 3, "txid": "txC"})
        for _ in range(2):  # the second copy finds nothing to undo
            ask(env, nodes[1], 0, MessageType.DIR_UPDATE,
                {"oid": "y", "owner": 1, "version": 2, "withdraw": True,
                 "txid": "txC"})
            assert shard.registered_version("y") == 2


class TestLeases:
    def test_heartbeat_renews_and_flags_stale(self, env, dirnet):
        nodes, shard = dirnet
        shard.register("z", owner=1, version=3, value="v3", value_version=3)
        before = shard._entries["z"].lease_expires_at
        p = ask(env, nodes[1], 0, MessageType.LEASE_RENEW,
                {"objects": [("z", 3, "v3")]})
        assert p["stale"] == []
        assert shard._entries["z"].lease_expires_at >= before
        # The registry moves past the copy: next heartbeat learns it.
        shard.register("z", owner=0, version=5, value="v5", value_version=5)
        p = ask(env, nodes[1], 0, MessageType.LEASE_RENEW,
                {"objects": [("z", 3, "v3")]})
        assert p["stale"] == ["z"]

    def test_expired_lease_reclaimed_on_lookup(self, env, dirnet):
        nodes, shard = dirnet
        shard.register("r", owner=1, version=2, value="snap", value_version=2)
        advance(env, 3.0)
        p = ask(env, nodes[1], 0, MessageType.DIR_LOOKUP, {"oid": "r"})
        assert p["owner"] == 0, "home reclaims an expired entry"
        assert p["version"] == 3, "reclaim fences with a version bump"
        assert shard.snapshot_of("r") == (3, "snap")

    def test_reclaim_waits_grace_when_commit_was_in_flight(self, env, dirnet):
        nodes, shard = dirnet
        # Registered version ahead of the snapshot: a commit was mid-
        # flight when the owner went silent.
        shard.register("g", owner=1, version=4, value="old", value_version=3)
        advance(env, 1.2)
        p = ask(env, nodes[1], 0, MessageType.DIR_LOOKUP, {"oid": "g"})
        assert p["owner"] == 1, "inside the grace window: no reclaim yet"
        advance(env, 0.6)
        p = ask(env, nodes[1], 0, MessageType.DIR_LOOKUP, {"oid": "g"})
        assert p["owner"] == 0
        assert p["version"] == 5  # max(4, 3) + 1

    def test_direct_reads_reclaim_lazily(self, env, dirnet):
        """Regression: ``owner_of``/``lookup`` (the in-process hint paths
        used by the proxy and the recovery sweep) must enforce lapsed
        leases exactly like a DIR_LOOKUP message — a stale hint here sent
        requesters chasing a dead owner until some RPC happened to fire
        the reclaim."""
        nodes, shard = dirnet
        shard.register("d", owner=1, version=2, value="snap", value_version=2)
        advance(env, 3.0)  # lease (1.0) + grace (0.5) long lapsed
        assert shard.owner_of("d") == 0, "owner_of reclaims on read"
        assert shard.lookup("d") == (0, 3), "reclaim fences with a bump"
        assert shard.snapshot_of("d") == (3, "snap")

    def test_unexpired_lease_untouched(self, env, dirnet):
        nodes, shard = dirnet
        shard.register("u", owner=1, version=1, value="v", value_version=1)
        p = ask(env, nodes[1], 0, MessageType.DIR_LOOKUP, {"oid": "u"})
        assert p["owner"] == 1

    def test_no_lease_mode_never_reclaims(self, env):
        rngs = RngRegistry(seed=4)
        topo = Topology(2, rngs.stream("topology"), kind=TopologyKind.UNIFORM)
        network = Network(env, topo)
        nodes = [Node(env, network, i) for i in range(2)]
        shard = DirectoryShard(nodes[0])  # lease_duration=None
        shard.register("x", owner=1, version=0, value="v", value_version=0)
        assert shard._entries["x"].lease_expires_at == math.inf
        advance(env, 100.0)
        p = ask(env, nodes[1], 0, MessageType.DIR_LOOKUP, {"oid": "x"})
        assert p["owner"] == 1


class TestGrantCache:
    """A transferred grant deletes the owner's copy before the response
    is on the wire; a dropped response must be recoverable by retry."""

    def _cluster(self):
        fc = FaultConfig(enabled=True, rpc_timeout=0.5, rpc_backoff_cap=0.5)
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=5, faults=fc))
        cluster.alloc("x", 42, node=0)
        return cluster

    def test_retry_after_lost_transfer_is_regranted(self):
        cluster = self._cluster()
        env, nodes = cluster.env, cluster.nodes
        req = {"oid": "x", "txid": "root1", "mode": "a"}
        replies = []

        def retrieve():
            r = yield from nodes[1].request(
                0, MessageType.RETRIEVE_REQUEST, dict(req)
            )
            replies.append(r.payload)

        cluster.spawn(retrieve())
        cluster.run(until=1.0)
        assert replies[0]["granted"] and replies[0]["transferred"]
        assert "x" not in cluster.proxies[0].store
        # Pretend the response was dropped: the requester never
        # installed, and retries the same request.
        cluster.spawn(retrieve())
        cluster.run(until=2.0)
        assert replies[1]["granted"] and replies[1]["transferred"]
        assert replies[1]["value"] == 42

    def test_other_transactions_are_not_served_from_cache(self):
        cluster = self._cluster()
        nodes = cluster.nodes
        replies = []

        def retrieve(txid):
            def proc():
                r = yield from nodes[1].request(
                    0, MessageType.RETRIEVE_REQUEST,
                    {"oid": "x", "txid": txid, "mode": "a"},
                )
                replies.append(r.payload)
            return proc()

        cluster.spawn(retrieve("root1"))
        cluster.run(until=1.0)
        cluster.spawn(retrieve("root2"))
        cluster.run(until=2.0)
        assert replies[0]["granted"]
        assert not replies[1].get("granted")
        assert replies[1].get("not_owner")


class TestReclaimRefreshesStaleLocalCopy:
    def test_reclaim_overwrites_free_stale_copy(self, env, dirnet):
        """If the home's own proxy still holds a FREE copy the registry
        has moved past, reclaim must refresh it — otherwise readers are
        served a version that can never validate again."""
        from repro.core.metrics import MetricsCollector
        from repro.dstm.proxy import TMProxy
        from repro.dstm.objects import VersionedObject
        from repro.scheduler.tfa_baseline import TfaScheduler

        nodes, shard = dirnet
        proxy = TMProxy(nodes[0], shard, TfaScheduler())
        shard.proxy = proxy
        shard.metrics = MetricsCollector()
        proxy.store["s"] = VersionedObject("s", "stale", 2)
        shard.register("s", owner=1, version=3, value="fresh", value_version=3)
        advance(env, 3.0)  # lease (1.0) long expired
        p = ask(env, nodes[1], 0, MessageType.DIR_LOOKUP, {"oid": "s"})
        assert p["owner"] == 0
        obj = proxy.store["s"]
        assert (obj.value, obj.version) == ("fresh", p["version"])


class TestCrashRecoveryEndToEnd:
    def test_object_of_crashed_owner_recovered_and_abort_counted(self):
        fc = FaultConfig(
            enabled=True, rpc_timeout=0.1, rpc_max_retries=2,
            rpc_backoff_cap=0.2, lease_duration=0.6,
            lease_renew_interval=0.2, reclaim_grace=0.3,
        )
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=2, faults=fc))
        home = home_node("obj", 3)
        owner = (home + 1) % 3
        requester = (home + 2) % 3
        cluster.alloc("obj", 100, node=owner)
        cluster.fault_plan.crashes.append(CrashWindow(owner, 0.0, math.inf))

        def bump(tx):
            v = yield from tx.read("obj")
            yield from tx.write("obj", v + 1)
            return v

        result = cluster.run_transaction(bump, node=requester)
        assert result == 100
        assert cluster.authoritative_value("obj") == 101
        m = cluster.metrics
        assert m.lease_reclaims.value >= 1, "recovery must go through reclaim"
        assert m.crash_aborts.value >= 1, "first attempts hit the dead owner"
        assert m.rpc_retries.value >= 1
        assert m.aborts_by_reason.get(AbortReason.OWNER_FAILURE, 0) >= 1
