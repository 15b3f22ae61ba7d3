"""The payload plane: resolve caches, wire-cost model, proxy-mode runs.

Unit level: :class:`NodePayload` / :class:`PayloadPlane` bookkeeping and
:class:`WireCostModel` delay arithmetic.  Integration level: descriptor
byte accounting, lazy ``PAYLOAD_FETCH`` resolution, fence-keyed cache
hits, and the sanitized proxy-cache coherence lens.
"""

import pytest

from repro.core import Cluster
from repro.core.config import CheckConfig, ClusterConfig, PayloadConfig
from repro.core.experiment import run_experiment
from repro.net import Message, MessageType, Network, Node, Topology
from repro.net.network import WireCostModel
from repro.rpc.payload import PayloadPlane
from repro.sim import RngRegistry


def make_plane(num_nodes=3, **cfg_kw):
    cfg_kw.setdefault("enabled", True)
    return PayloadPlane(PayloadConfig(**cfg_kw), num_nodes)


class TestNodePayload:
    def test_lookup_counts_hits_and_misses(self):
        plane = make_plane()
        cache = plane.nodes[0]
        cache.install("x", 3)
        assert cache.lookup("x", 3) is True
        assert cache.lookup("x", 4) is False   # fence moved: stale
        assert cache.lookup("y", 0) is False   # never resolved
        assert (cache.hits, cache.misses) == (1, 2)

    def test_fence_bump_invalidates_by_construction(self):
        plane = make_plane()
        cache = plane.nodes[0]
        cache.install("x", 1)
        cache.install("x", 2)
        assert cache.cache_version("x") == 2
        assert cache.lookup("x", 1) is False

    def test_never_replaces_newer_fence_with_older(self):
        plane = make_plane()
        cache = plane.nodes[0]
        cache.install("x", 5)
        cache.install("x", 3)   # a straggler reply lands late
        assert cache.cache_version("x") == 5


class TestPayloadPlane:
    def test_register_and_size_of(self):
        plane = make_plane(size=100)
        plane.register("a", 1, size=5_000)
        plane.register("b", 2)
        assert plane.size_of("a") == 5_000
        assert plane.size_of("b") == 100     # plane default
        assert plane.size_of("ghost") == 100
        assert plane.source == {"a": 1, "b": 2}

    def test_materialize_moves_the_factory(self):
        plane = make_plane()
        plane.register("a", 1)
        plane.note_materialize(2, "a", 7)
        assert plane.source["a"] == 2
        assert plane.nodes[2].cache_version("a") == 7

    def test_hit_rate_over_all_nodes(self):
        plane = make_plane()
        plane.nodes[0].install("a", 1)
        plane.nodes[0].lookup("a", 1)
        plane.nodes[1].lookup("a", 1)
        assert plane.totals()["hits"] == 1
        assert plane.totals()["misses"] == 1
        assert plane.hit_rate() == 0.5


def _charged_send(env, cost, wire_bytes):
    """Delivery time of one 0 -> 1 send under ``cost``, minus the link."""
    topo = Topology(2, RngRegistry(seed=5).stream("topology"))
    network = Network(env, topo)
    for i in range(2):
        Node(env, network, i)
    network.cost = cost
    when = network.send(Message(MessageType.PING, 0, 1, wire_bytes=wire_bytes))
    return when - topo.delay(0, 1)


class TestWireCostModel:
    def test_extra_delay_arithmetic(self, env):
        model = WireCostModel(bandwidth=1e6, ser_per_byte=1e-9, control_size=100)
        # (100 + 900) bytes over 1 MB/s + per-byte serialization
        assert _charged_send(env, model, 900) == pytest.approx(
            1_000 / 1e6 + 1_000 * 1e-9
        )

    def test_zero_payload_still_bills_control_size(self, env):
        model = WireCostModel(bandwidth=2e6, ser_per_byte=0.0, control_size=256)
        assert _charged_send(env, model, 0) == pytest.approx(256 / 2e6)

    @pytest.mark.parametrize(
        "bandwidth", [0.0, -1e6, float("inf"), float("nan")]
    )
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            WireCostModel(bandwidth, 1e-9, 256)

    @pytest.mark.parametrize("ser_per_byte", [-1e-9, float("inf"), float("nan")])
    def test_ser_per_byte_must_be_finite_and_non_negative(self, ser_per_byte):
        with pytest.raises(ValueError, match="ser_per_byte"):
            WireCostModel(125e6, ser_per_byte, 256)

    def test_control_size_must_be_non_negative(self):
        with pytest.raises(ValueError, match="control_size"):
            WireCostModel(125e6, 1e-9, -1)


# ---------------------------------------------------------------------------
# integration: proxy payloads over a live cluster
# ---------------------------------------------------------------------------

SIZE = 1_000_000


def cluster(**over):
    cfg_kw = dict(enabled=True, size=SIZE)
    cfg_kw.update(over.pop("payload", {}))
    return Cluster(ClusterConfig(
        num_nodes=4, seed=7, payload=PayloadConfig(**cfg_kw), **over,
    ))


def incr(tx):
    v = yield from tx.read("x1")
    yield from tx.write("x1", v + 1)
    return v


def read_only(tx):
    v = yield from tx.read("x1")
    return v


class TestProxyMode:
    def test_remote_cost_model_slows_large_payloads(self):
        def one_run(size):
            c = Cluster(ClusterConfig(
                num_nodes=4, seed=7,
                payload=PayloadConfig(enabled=True, size=size),
            ))
            c.alloc("x1", 0)
            c.run_transaction(incr, node=2)
            return c.env.now

        assert one_run(100_000_000) > one_run(1_024)

    def test_grants_ship_only_the_descriptor(self):
        c = cluster()
        c.alloc("x1", 0)
        c.run_transaction(incr, node=2)
        stats = c.payload_stats()
        # One fetch moved the bulk bytes; everything else was descriptor
        # sized (far below one payload).
        assert stats["payload_fetches"] >= 1
        assert stats["payload_fetch_bytes"] >= SIZE
        assert stats["grant_bytes_on_wire"] < SIZE / 100

    def test_repeat_read_at_same_fence_hits_the_cache(self):
        c = cluster()
        c.alloc("x1", 0)
        c.run_transaction(read_only, node=2)
        fetches_after_first = c.payload_stats()["payload_fetches"]
        c.run_transaction(read_only, node=2)
        stats = c.payload_stats()
        assert stats["payload_fetches"] == fetches_after_first
        assert stats["payload_cache_hits"] >= 1

    def test_committed_write_bumps_fence_and_refetches(self):
        c = cluster()
        c.alloc("x1", 0)
        c.run_transaction(read_only, node=2)
        before = c.payload_stats()["payload_fetches"]
        c.run_transaction(incr, node=3)      # fence bump at node 3
        c.run_transaction(read_only, node=2)  # node 2's bytes now stale
        assert c.payload_stats()["payload_fetches"] > before

    def test_sanitized_proxy_run_is_clean(self):
        """The inv-payload-fence lens holds over a full sanitized run."""
        cfg = ClusterConfig(
            num_nodes=6, seed=3, cl_threshold=4,
            payload=PayloadConfig(enabled=True, proxy=True, size=65_536),
            check=CheckConfig(sanitize=True),
        )
        result = run_experiment("bank", cfg, read_fraction=0.9,
                                workers_per_node=2, horizon=4.0)
        assert result.commits > 0
        assert result.extra["payload_fetches"] > 0


class TestPayloadFenceLens:
    def test_serving_past_the_watermark_raises(self):
        from repro.check.sanitize import InvariantViolation, Sanitizer
        from repro.dstm.objects import home_node

        c = cluster()
        san = Sanitizer()
        for node_id, proxy in enumerate(c.proxies):
            san.attach_proxy(node_id, proxy)
        oid = "x1"
        home = home_node(oid, 4)
        san.note_register(home, oid, 2)
        # Fabricate bytes at a fence the home never registered.
        c.payload_plane.register(oid, 0, size=10)
        c.payload_plane.nodes[0].install(oid, 9)
        with pytest.raises(InvariantViolation) as exc:
            san.check_payload_serve(oid, 9, node=0, now=1.0)
        assert exc.value.rule_id == "inv-payload-fence"

    def test_serving_from_a_different_fence_raises(self):
        from repro.check.sanitize import InvariantViolation, Sanitizer

        c = cluster()
        san = Sanitizer()
        for node_id, proxy in enumerate(c.proxies):
            san.attach_proxy(node_id, proxy)
        c.payload_plane.register("x1", 0, size=10)   # holds fence 0
        with pytest.raises(InvariantViolation):
            san.check_payload_serve("x1", 1, node=0, now=1.0)

    def test_exact_fence_within_watermark_is_clean(self):
        from repro.check.sanitize import Sanitizer
        from repro.dstm.objects import home_node

        c = cluster()
        san = Sanitizer()
        for node_id, proxy in enumerate(c.proxies):
            san.attach_proxy(node_id, proxy)
        san.note_register(home_node("x1", 4), "x1", 0)
        c.payload_plane.register("x1", 0, size=10)
        san.check_payload_serve("x1", 0, node=0, now=1.0)


class TestWorkloadSizeSpec:
    def test_workload_payload_size_becomes_plane_default(self):
        cfg = ClusterConfig(
            num_nodes=4, seed=3,
            payload=PayloadConfig(enabled=True, proxy=True, size=1),
        )
        result = run_experiment(
            "bank", cfg, read_fraction=0.9, workers_per_node=1, horizon=2.0,
            workload_kwargs={"payload_size": 200_000},
        )
        # The fetch traffic reflects the workload's declared size, not
        # the 1-byte plane default.
        assert result.extra["payload_fetch_bytes"] >= 200_000

    def test_negative_payload_size_rejected(self):
        from repro.workloads.registry import make_workload

        with pytest.raises(ValueError):
            make_workload("bank", payload_size=-1)
