"""The validation and registration fan-outs as state machines: what they
cost the kernel, when each reply folds into the lookup cache, and whom
the tools attribute the reply events to."""

from repro.check.explore import _sites_of
from repro.core.api import Cluster
from repro.core.config import ClusterConfig, SchedulerKind
from repro.dstm.objects import home_node
from repro.dstm.tfa import TFAEngine
from repro.net.message import MessageType
from repro.prof.kernel import site_of

NODES = 5
K = 4


def make_cluster(**kw):
    defaults = dict(num_nodes=NODES, seed=7, scheduler=SchedulerKind.TFA,
                    prof=dict(enabled=True))
    defaults.update(kw)
    return Cluster(ClusterConfig(**defaults))


def remote_oids(node, k=K):
    """``k`` object ids whose home is not ``node``, on distinct homes
    where the cluster is large enough."""
    picked, homes = [], set()
    for i in range(1000):
        oid = f"obj{i}"
        home = home_node(oid, NODES)
        if home != node and home not in homes:
            picked.append(oid)
            homes.add(home)
            if len(picked) == k:
                return picked
    raise AssertionError("not enough distinct remote homes")


def spy_on_processes(monkeypatch):
    """Count the per-call generators the policy path wraps in processes."""
    made = {"validate": 0, "register": 0}
    for label, name in (("validate", "_one_validate"), ("register", "_register")):
        original = getattr(TFAEngine, name)

        def spy(self, *args, _original=original, _label=label):
            made[_label] += 1
            return _original(self, *args)

        monkeypatch.setattr(TFAEngine, name, spy)
    return made


def validate(cluster, node, pairs):
    engine = cluster.engines[node]

    def driver():
        return (yield from engine._validate_versions(pairs))

    proc = cluster.env.process(driver(), name="driver")
    return cluster.env.run(until=proc)


def write_all(oids):
    def body(tx):
        for oid in oids:
            yield from tx.write(oid, 1)

    return body


class TestKernelCost:
    def test_k_way_validation_is_k_reply_events_and_no_process(self, monkeypatch):
        made = spy_on_processes(monkeypatch)
        cluster = make_cluster()
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=0)
        assert validate(cluster, 1, [(oid, 0) for oid in oids]) == [True] * K
        counts = cluster.profiler.counts
        assert made == {"validate": 0, "register": 0}
        assert counts[("Event", "n*.tfa")] == K
        assert not any(site == "validate" for _, site in counts)
        # the driver is the only process there ever was
        assert cluster.profiler.event_counts["Process"] == 1
        # per call: 4 message events (2 link delays, 2 services) + the
        # reply event; then the join and the driver's two
        assert cluster.env.events_processed == 5 * K + 3

    def test_k_object_registration_is_k_reply_events_and_no_process(
        self, monkeypatch
    ):
        made = spy_on_processes(monkeypatch)
        cluster = make_cluster()
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=1)  # already here: no transfer DIR_UPDATE
        cluster.run_transaction(write_all(oids), node=1)
        counts = cluster.profiler.counts
        per_type = cluster.network.per_type
        assert made == {"validate": 0, "register": 0}
        assert per_type[MessageType.DIR_UPDATE] == K
        # every validation and registration call is one fold dispatch
        assert counts[("Event", "n*.tfa")] == (
            K + per_type.get(MessageType.READ_VALIDATE, 0)
        )
        assert not any(
            site in ("validate", "n*.register") for _, site in counts
        )
        for oid in oids:
            assert cluster.directories[home_node(oid, NODES)].lookup(oid) == (1, 1)

    def test_a_retry_policy_keeps_one_process_per_call(self, monkeypatch):
        made = spy_on_processes(monkeypatch)
        cluster = make_cluster(faults=dict(enabled=True))
        assert cluster.proxies[1].rpc_policy is not None
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=1)
        assert validate(cluster, 1, [(oid, 0) for oid in oids]) == [True] * K
        assert made == {"validate": K, "register": 0}
        cluster.run_transaction(write_all(oids), node=1)
        assert made["register"] == K
        counts = cluster.profiler.counts
        assert ("Event", "n*.tfa") not in counts
        assert counts[("Event", "validate")] >= K
        assert counts[("Event", "n*.register")] >= K


class TestFoldTime:
    def test_each_reply_folds_as_it_lands_not_at_the_join(self):
        cluster = make_cluster(rpc=dict(cache=True))
        env, delay = cluster.env, cluster.topology.delay
        svc = cluster.config.msg_process_time
        near, far = sorted(
            remote_oids(1, 2),
            key=lambda oid: delay(1, home_node(oid, NODES)),
        )

        def lands(oid):
            home = home_node(oid, NODES)
            return delay(1, home) + svc + delay(home, 1) + svc

        assert lands(near) < lands(far)
        cache = cluster.proxies[1].owner_hints
        for oid in (near, far):
            # the registry is at version 3; node 1 learned the owner at 1
            cluster.directories[home_node(oid, NODES)].register(oid, 0, version=3)
            cache.put(oid, 0, version=1)

        engine = cluster.engines[1]
        out = []

        def driver():
            out.append((yield from engine._validate_versions(
                [(far, 1), (near, 1)]
            )))

        env.process(driver(), name="driver")
        env.run(until=(lands(near) + lands(far)) / 2)
        assert cache.fences == 1 and near not in cache and far in cache
        assert out == []  # the join is still waiting
        env.run()
        assert cache.fences == 2 and far not in cache
        assert out == [[False, False]]
        assert env.now == lands(far)


class TestAttribution:
    def pending_replies(self, cluster, node):
        return list(cluster.nodes[node]._pending_replies.values())

    def test_validation_reply_event_belongs_to_the_validating_node(self):
        cluster = make_cluster()
        oids = remote_oids(3)
        engine = cluster.engines[3]

        def driver():
            yield from engine._validate_versions([(oid, 0) for oid in oids])

        proc = cluster.env.process(driver(), name="n3.driver")
        cluster.env.run(until=1e-9)  # past the bootstrap: calls in flight
        replies = self.pending_replies(cluster, 3)
        assert len(replies) == K
        for reply in replies:
            fold, join = reply.callbacks
            assert site_of(fold) == "n*.tfa"
            assert fold.__self__ is engine and engine.name == "n3.tfa"
            # through the named owner and the join's waiting process
            assert _sites_of(reply) == frozenset({3})
        cluster.env.run(until=proc)

    def test_registration_reply_event_belongs_to_the_committing_node(self):
        cluster = make_cluster()
        oids = remote_oids(2)
        for oid in oids:
            cluster.alloc(oid, 0, node=2)
        proc = cluster.spawn(cluster.atomic(write_all(oids), node=2), name="tx@2")
        registering = []  # step until the registration calls are in flight
        while not registering and not proc.triggered:
            cluster.env.step()
            registering = [
                ev for ev in self.pending_replies(cluster, 2)
                if ev.callbacks
                and getattr(ev.callbacks[0], "__func__", None)
                is TFAEngine._fold_register
            ]
        assert len(registering) == K
        for reply in registering:
            assert site_of(reply.callbacks[0]) == "n*.tfa"
            # the parent attributed the n2.register process to node 2
            assert _sites_of(reply) == frozenset({2})
        cluster.env.run(until=proc)
        assert proc.ok
