"""Piggyback batching: co-deliverable sends share one simulated delivery."""

import pytest

from repro.core import ClusterConfig, SchedulerKind
from repro.core.experiment import run_experiment
from repro.net import Message, MessageType, Network, Node, Topology
from repro.rpc.batch import PiggybackBatcher
from repro.sim import RngRegistry


@pytest.fixture
def net2(env):
    rngs = RngRegistry(seed=5)
    topo = Topology(2, rngs.stream("topology"))
    network = Network(env, topo)
    nodes = [Node(env, network, i) for i in range(2)]
    return network, nodes


class TestCoalescing:
    def test_same_window_sends_share_one_delivery(self, env, net2):
        network, nodes = net2
        batcher = PiggybackBatcher(env, window=0.010).install(network)
        arrivals = []
        nodes[1].on(MessageType.PING,
                    lambda msg: arrivals.append((env.now, msg.payload["i"])))

        def burst():
            nodes[0].send(1, MessageType.PING, {"i": 0})
            yield env.timeout(0.004)    # still inside the window
            nodes[0].send(1, MessageType.PING, {"i": 1})

        env.process(burst())
        env.run()

        link = network.topology.delay(0, 1)
        assert arrivals == [
            (pytest.approx(0.010 + link), 0),
            (pytest.approx(0.010 + link), 1),
        ]
        assert batcher.stats() == {
            "batches": 1, "batched_messages": 2,
            "mean_batch": 2.0, "max_batch": 2,
        }

    def test_window_close_reopens_the_link(self, env, net2):
        network, nodes = net2
        batcher = PiggybackBatcher(env, window=0.010).install(network)
        arrivals = []
        nodes[1].on(MessageType.PING, lambda msg: arrivals.append(env.now))

        def paced():
            nodes[0].send(1, MessageType.PING, {})
            yield env.timeout(0.020)    # window closed: a fresh batch
            nodes[0].send(1, MessageType.PING, {})

        env.process(paced())
        env.run()
        assert batcher.batches == 2 and batcher.max_batch == 1
        assert arrivals[1] - arrivals[0] == pytest.approx(0.020)

    def test_local_sends_bypass_the_batcher(self, env, net2):
        network, nodes = net2
        batcher = PiggybackBatcher(env, window=0.010).install(network)
        arrivals = []
        nodes[0].on(MessageType.PING, lambda msg: arrivals.append(env.now))
        nodes[0].send(0, MessageType.PING, {})
        env.run()
        assert len(arrivals) == 1
        assert arrivals[0] == pytest.approx(network.local_delay)
        assert batcher.batches == 0

    def test_window_must_be_positive(self, env):
        with pytest.raises(ValueError):
            PiggybackBatcher(env, window=0.0)

    @pytest.mark.parametrize("window", [float("inf"), float("nan")])
    def test_window_must_be_finite(self, env, window):
        """An infinite window never flushes (every remote message would
        silently vanish) and a NaN one would reach the kernel's heap: both
        are refused before any message is enqueued."""
        with pytest.raises(ValueError, match="finite and > 0"):
            PiggybackBatcher(env, window=window)

    def test_config_refuses_an_infinite_window(self):
        with pytest.raises(ValueError, match="batch_window must be finite"):
            ClusterConfig(rpc=dict(batch_window=float("inf")))


class TestClusterWithBatching:
    CFG = dict(num_nodes=6, seed=9, scheduler=SchedulerKind.RTS,
               cl_threshold=4)

    def _run(self):
        cfg = ClusterConfig(rpc=dict(batch_window=0.002), **self.CFG)
        return run_experiment("bank", cfg, read_fraction=0.9,
                              workers_per_node=2, horizon=3.0)

    def test_run_completes_and_reports_batches(self):
        result = self._run()
        assert result.commits > 0
        assert result.extra["rpc_batches"] > 0
        assert result.extra["rpc_batched_messages"] >= result.extra["rpc_batches"]
        assert result.extra["rpc_mean_batch"] >= 1.0

    def test_batched_runs_are_seed_deterministic(self):
        a, b = self._run(), self._run()
        assert a.commits == b.commits
        assert a.root_aborts == b.root_aborts
        assert a.sim_events == b.sim_events
        assert a.extra["rpc_batches"] == b.extra["rpc_batches"]
        assert a.extra["rpc_batched_messages"] == b.extra["rpc_batched_messages"]


@pytest.mark.xfail(
    strict=True,
    reason="PiggybackBatcher._flush ships every rider at the first member's "
    "delay, so with the wire-cost model on a coalesced payload rides free; "
    "fixing it moves serve_proxy_bank_8's simulated timeline (own PR, own "
    "digest change) — DESIGN.md §3d/§3i",
)
def test_batched_member_pays_its_own_wire_cost(env, net2):
    from repro.net.network import WireCostModel

    network, nodes = net2
    PiggybackBatcher(env, window=0.010).install(network)
    # 1 MB/s link, no serialization cost, empty control envelope
    network.cost = WireCostModel(1_000_000.0, 0.0, 0)
    arrivals = []
    nodes[1].on(MessageType.PING, lambda msg: arrivals.append(env.now))
    nodes[0].send(1, MessageType.PING)
    promised = network.send(
        Message(MessageType.PING, 0, 1, wire_bytes=1_000_000)
    )
    env.run()
    link = network.topology.delay(0, 1)
    assert promised == pytest.approx(0.010 + link + 1.0)
    assert arrivals[1] == pytest.approx(promised)  # today: 0.010 + link
