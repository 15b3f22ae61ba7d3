"""The version-fenced lookup cache, in both of its modes."""

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.rpc import LookupCache


class TestHintMode:
    """fencing=False: entries change only where the protocol puts and
    drops them; versions are never acted on."""

    def test_typed_api(self):
        cache = LookupCache()
        cache.put("a", 3)
        assert cache.owner("a") == 3 and cache.owner("b") is None
        cache.learn("a", 9)             # an entry exists: kept
        cache.learn("b", 9)             # none yet: put
        assert (cache.owner("a"), cache.owner("b")) == (3, 9)
        cache.drop("a")
        cache.drop("a")                 # absent: no-op
        assert cache.owner("a") is None
        assert (cache.hits, cache.misses) == (0, 0), "owner() is no probe"

    def test_no_mapping_protocol(self):
        for name in ("get", "pop", "setdefault", "__getitem__", "__setitem__",
                     "__contains__", "__len__", "__iter__"):
            assert not hasattr(LookupCache, name), name

    def test_note_version_is_inert(self):
        cache = LookupCache(fencing=False)
        cache.put("x", 1, version=1)
        cache.note_version("x", 99)
        assert cache.owner("x") == 1
        assert cache.fences == 0

    def test_note_install_is_inert(self):
        cache = LookupCache(fencing=False)
        cache.put("x", 1, version=1)
        cache.note_install("x", 2, 5)
        cache.note_install("y", 2, 5)
        assert (cache.owner("x"), cache.owner("y")) == (1, None)

    def test_lookup_counts_probes(self):
        cache = LookupCache()
        assert cache.lookup("x") is None
        cache.put("x", 2)
        assert cache.lookup("x") == 2
        assert (cache.hits, cache.misses) == (1, 1)


class TestFencedMode:
    def test_stale_entry_is_fenced_out(self):
        cache = LookupCache(fencing=True)
        cache.put("x", 1, version=3)
        cache.note_version("x", 3)      # same version: still trustworthy
        assert cache.owner("x") == 1
        cache.note_version("x", 4)      # registry moved past the learn point
        assert cache.owner("x") is None
        assert cache.fences == 1

    def test_authoritative_observation_replaces(self):
        cache = LookupCache(fencing=True)
        cache.put("x", 1, version=3)
        cache.note_version("x", 5, owner=2)
        assert cache.owner("x") == 2
        assert cache.fences == 0
        cache.note_version("x", 5)      # learned at 5 now: kept
        assert cache.owner("x") == 2

    def test_note_install_advances_the_entry(self):
        cache = LookupCache(fencing=True)
        cache.put("x", 1, version=3)
        cache.note_install("x", 0, 4)
        cache.note_version("x", 4)      # the install's own version: kept
        assert cache.owner("x") == 0 and cache.fences == 0

    def test_unversioned_entries_are_kept(self):
        # No learn-point anchor means the entry cannot be judged stale;
        # a wrong hint heals through the not_owner chase instead.
        cache = LookupCache(fencing=True)
        cache.put("x", 1)
        cache.note_version("x", 10)
        assert cache.owner("x") == 1
        assert cache.fences == 0

    def test_put_without_version_drops_old_anchor(self):
        cache = LookupCache(fencing=True)
        cache.put("x", 1, version=3)
        cache.put("x", 2)               # new fact, no anchor
        cache.note_version("x", 99)     # must not judge by the stale anchor
        assert cache.owner("x") == 2

    def test_note_version_on_absent_oid_is_noop(self):
        cache = LookupCache(fencing=True)
        cache.note_version("ghost", 4)
        assert cache.fences == 0 and cache.owner("ghost") is None

    def test_drop_forgets_the_anchor(self):
        cache = LookupCache(fencing=True)
        cache.put("x", 1, version=2)
        cache.drop("x")
        assert cache.owner("x") is None
        cache.learn("x", 3)             # re-learned with no anchor
        cache.note_version("x", 9)
        assert cache.owner("x") == 3 and cache.fences == 0


def test_stats_shape():
    """Cluster.rpc_cache_stats sums the proxies' caches."""
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=1, rpc=dict(cache=True)))
    first, second = (p.owner_hints for p in cluster.proxies)
    assert first.fencing and second.fencing
    first.put("x", 1, version=1)
    first.lookup("x")
    second.lookup("y")
    first.note_version("x", 2)
    assert cluster.rpc_cache_stats() == {
        "cache_hits": 1.0, "cache_misses": 1.0, "cache_hit_rate": 0.5,
        "cache_fences": 1.0,
    }


#: the serve_proxy_bank_8 ledger cell: open-loop Poisson at 1 tx/s over
#: a Zipf-1.2 account population, proxy payloads, fenced cache, batcher
SERVE_CELL = dict(
    num_nodes=8, scheduler="rts", cl_threshold=4,
    arrival=dict(enabled=True, rate=1.0, zipf_s=1.2),
    payload=dict(enabled=True, size=1 << 20),
    rpc=dict(cache=True, batch_window=0.002),
)
#: the ledger smoke's horizon for that cell (its 900 sim-s / 6)
SHORT_HORIZON = 150.0


def test_no_cache_outgrows_the_allocated_objects():
    """Both per-node caches are keyed by oid and every object is
    allocated at bootstrap, so neither can hold more entries than the
    cluster has objects, however long the run: there is no bound to set
    and nothing to evict.  Checked on the serving cell at 4x a short
    horizon."""
    from repro.traffic.engine import OpenLoopExecutor
    from repro.workloads.registry import make_workload

    cluster = Cluster(ClusterConfig(seed=1, **SERVE_CELL))
    workload = make_workload("bank", read_fraction=0.2)
    executor = OpenLoopExecutor(
        cluster, workload, cluster.config.arrival,
        service_workers=2, horizon=4 * SHORT_HORIZON,
    )
    executor.setup()
    executor.run()
    objects = len(workload.accounts)
    lookup = [len(p.owner_hints._owners) for p in cluster.proxies]
    resolved = [len(n.cache) for n in cluster.payload_plane.nodes.values()]
    assert cluster.metrics.commits.value > 400
    assert max(lookup) <= objects and max(resolved) <= objects
    # not vacuous: the caches did fill up over the run
    assert max(lookup) > objects // 2 and max(resolved) > objects // 2
