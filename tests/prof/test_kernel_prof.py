"""Kernel profiler: attribution, determinism, export, strict additivity."""

import pytest

from repro.prof.kernel import KernelProfiler, normalize_site, site_of
from repro.sim import Environment


class TestSiteNormalisation:
    @pytest.mark.parametrize("raw,expected", [
        ("dispatch[3][1]", "dispatch"),
        ("traffic.arrivals[2]", "traffic.arrivals"),
        ("n7.heartbeat", "n*.heartbeat"),
        ("w0", "w*"),
        ("tx@4", "tx@*"),
        ("plain", "plain"),
    ])
    def test_normalize(self, raw, expected):
        assert normalize_site(raw) == expected

    def test_site_of_plain_function(self):
        def my_callback(event):
            pass

        site = site_of(my_callback)
        assert "my_callback" in site

    def test_site_of_named_process(self):
        env = Environment()

        def gen():
            yield env.timeout(1.0)

        proc = env.process(gen(), name="dispatch[3][1]")
        assert site_of(proc._resume) == "dispatch"

    def test_site_of_inbox_service_callback(self):
        """The callback-chained inbox server is no Process, but its
        service events still aggregate under the ``n*.inbox`` site."""
        from repro.net import MessageType, Network, Node, Topology
        from repro.sim import RngRegistry

        env = Environment()
        net = Network(env, Topology(8, RngRegistry(seed=4).stream("topo")))
        nodes = [Node(env, net, i, msg_process_time=0.01) for i in (0, 7)]
        nodes[1].on(MessageType.PING, lambda m: None)
        nodes[0].send(7, MessageType.PING)
        env.run(until=net.topology.delay(0, 7))
        (entry,) = env.pending_entries()
        callback = entry[3]  # a call entry: (when, prio, seq, fn, arg)
        assert callback.__self__.name == "n7.inbox"
        assert site_of(callback) == "n*.inbox"


def _drive(profiler=None, procs=5, events=500):
    env = Environment()
    if profiler is not None:
        profiler.install(env)

    def worker(i):
        while True:
            yield env.timeout(0.001 * (1 + i % 3))

    for i in range(procs):
        env.process(worker(i), name=f"w{i}")
    from repro.sim import SimulationError

    try:
        env.run(max_events=events)
    except SimulationError:
        pass
    return env


class TestCounters:
    def test_every_event_attributed(self):
        prof = KernelProfiler()
        env = _drive(prof)
        assert prof.events == env.events_processed
        assert sum(prof.event_counts.values()) == prof.events
        assert all(isinstance(k, tuple) and len(k) == 2 for k in prof.counts)
        # all worker processes collapse onto one site
        assert {site for _, site in prof.counts} == {"w*"}

    def test_counters_are_deterministic(self):
        a, b = KernelProfiler(), KernelProfiler()
        _drive(a)
        _drive(b)
        assert a.counts == b.counts
        assert a.event_counts == b.event_counts
        assert a.folded() == b.folded()

    def test_timeline_identical_with_and_without_profiler(self):
        plain = _drive(None)
        prof = KernelProfiler()
        profiled = _drive(prof)
        assert plain.events_processed == profiled.events_processed
        assert plain.now == profiled.now

    def test_off_by_default(self):
        env = Environment()
        assert env.profiler is None

    def test_wall_mode_counts_match_counter_mode(self):
        cnt, wall = KernelProfiler(), KernelProfiler(wall=True)
        _drive(cnt)
        env = _drive(wall)
        assert wall.counts == cnt.counts
        assert env.events_processed == wall.events
        # host time accumulated, but only in wall mode
        assert sum(wall.wall_ns.values()) > 0
        assert not cnt.wall_ns

    def test_snapshot_shape(self):
        prof = KernelProfiler()
        _drive(prof)
        snap = prof.snapshot(top=3)
        assert snap["mode"] == "counters"
        assert snap["events"] == prof.events
        assert len(snap["top"]) <= 3
        weights = [r["count"] for r in snap["top"]]
        assert weights == sorted(weights, reverse=True)


class TestExports:
    def test_folded_byte_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            prof = KernelProfiler()
            _drive(prof)
            p = tmp_path / f"out{i}.folded"
            prof.write_folded(str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
        lines = paths[0].decode().splitlines()
        assert all(line.startswith("kernel;") for line in lines)
        assert lines == sorted(lines)


class TestClusterIntegration:
    """The ProfConfig path: snapshot in extra, files written, timeline
    pinned separately in tests/rpc/test_equivalence.py."""

    def test_experiment_exports_files(self, tmp_path):
        from repro.core.config import ClusterConfig
        from repro.core.experiment import run_experiment

        folded = tmp_path / "run.folded"
        cfg = ClusterConfig(
            num_nodes=3, seed=2, scheduler="rts", cl_threshold=4,
            prof=dict(enabled=True, folded_path=str(folded)),
        )
        result = run_experiment("ll", cfg, horizon=2.0)
        snap = result.extra["prof"]
        assert snap["events"] == result.sim_events
        assert folded.exists()
        # simulation endpoints show up as sites
        sites = {site for line in folded.read_text().splitlines()
                 for site in [line.split(";")[2].split(" ")[0]]}
        assert any("n*" in s or "w" in s or "Network" in s for s in sites)
