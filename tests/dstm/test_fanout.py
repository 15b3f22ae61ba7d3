"""The validation and registration fan-outs as state machines: what they
cost the kernel, when each reply folds into the lookup cache, and whom
the tools attribute the reply signals to."""

import pytest

from repro.check.explore import _delivery_dst, _entry_sites
from repro.core.api import Cluster
from repro.core.config import ClusterConfig, SchedulerKind
from repro.dstm.errors import AbortReason, TransactionAborted
from repro.dstm.objects import home_node
from repro.dstm.transaction import ReadEntry
from repro.net.message import Message, MessageType
from repro.prof.kernel import site_of
from repro.rpc import ENDPOINTS
from repro.sim import Signal

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


def reads(engine, pairs):
    """A root on ``engine``'s node whose read set holds ``pairs``."""
    tx = engine.begin()
    for oid, version in pairs:
        tx.rset[oid] = ReadEntry(oid, version, served_by=0)
    return tx


def validate(cluster, node, pairs):
    engine = cluster.engines[node]
    tx = reads(engine, pairs)

    def driver():
        return (yield from engine._first_stale([tx], set()))

    proc = cluster.env.process(driver(), name="driver")
    return cluster.env.run(until=proc)


def spy_on_submits(client):
    """Record (time, endpoint name, payload, reply signal) of every
    submit."""
    seen = []
    original = client.submit

    def spy(dst, endpoint, payload=None):
        reply = original(dst, endpoint, payload)
        seen.append((client.env.now, endpoint.name, payload, reply))
        return reply

    client.submit = spy
    return seen


def write_all(oids):
    def body(tx):
        for oid in oids:
            yield from tx.write(oid, 1)

    return body


def rpc_calls(profiler):
    """Call entries at a node's ``n<id>.rpc`` site: reply signals, joins
    and resend windows."""
    return profiler.counts.get(("call", "n*.rpc"), 0)


def count_folds(engine):
    """Record the reply every validation and registration leg folds."""
    folds = []
    for name in ("_fold_validate", "_fold_register"):
        fold = getattr(engine, name)
        setattr(engine, name, lambda msg, fold=fold: (folds.append(msg), fold(msg)))
    return folds


def no_reply_event(profiler):
    """No kernel entry but a call is attributed to the RPC layer, and no
    ``AllOf`` ever fired."""
    return "AllOf" not in profiler.event_counts and not any(
        kind != "call" and site == "n*.rpc" for kind, site in profiler.counts
    )


class TestKernelCost:
    def test_k_way_validation_is_k_reply_events_and_no_process(self):
        cluster = make_cluster()
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=0)
        assert validate(cluster, 1, [(oid, 0) for oid in oids]) is None
        profiler = cluster.profiler
        # K reply calls and one join wake-up, all at the validator's site
        assert rpc_calls(profiler) == K + 1
        # the only Event is the driver's bootstrap, the only process the
        # driver: neither a reply nor the join builds one
        assert [key for key in profiler.counts if key[0] != "call"] == [
            ("Event", "driver")
        ]
        assert profiler.event_counts["Event"] == 1
        assert profiler.event_counts["Process"] == 1
        # per call: 4 message calls (2 link delays, 2 services) + the
        # reply call; then the join and the driver's two
        assert cluster.env.events_processed == 5 * K + 3

    def test_k_object_registration_is_k_reply_events_and_no_process(self):
        cluster = make_cluster()
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=1)  # already here: no transfer DIR_UPDATE
        cluster.run_transaction(write_all(oids), node=1)
        profiler = cluster.profiler
        per_type = cluster.network.per_type
        validations = per_type.get(MessageType.READ_VALIDATE, 0)
        assert per_type[MessageType.DIR_UPDATE] == K
        # one reply call per call the node made (its blocking opens, the
        # registrations, any validations), one join per fan-out
        calls = cluster.proxies[1].rpc_client.calls
        assert rpc_calls(profiler) == calls + 1 + (validations > 0)
        assert no_reply_event(profiler)
        assert not any(
            site in ("validate", "n*.register") for _, site in profiler.counts
        )
        for oid in oids:
            assert cluster.directories[home_node(oid, NODES)].lookup(oid) == (1, 1)

    def test_a_retry_policy_keeps_k_reply_events_and_no_process(self):
        cluster = make_cluster(faults=dict(enabled=True))
        assert cluster.proxies[1].rpc_client.policy is not None
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=0)
        assert validate(cluster, 1, [(oid, 0) for oid in oids]) is None
        profiler = cluster.profiler
        # the same K reply calls and one join as without a policy; each
        # call's first reply window is pending, none has expired yet
        assert rpc_calls(profiler) == K + 1
        assert no_reply_event(profiler)
        assert profiler.event_counts["Process"] == 1

        cluster = make_cluster(faults=dict(enabled=True))
        for oid in oids:
            cluster.alloc(oid, 0, node=1)
        folds = count_folds(cluster.engines[1])
        cluster.run_transaction(write_all(oids), node=1)
        profiler = cluster.profiler
        per_type = cluster.network.per_type
        assert per_type[MessageType.DIR_UPDATE] == K
        # every validation and registration call is one fold, of a reply
        assert len(folds) == K + per_type.get(MessageType.READ_VALIDATE, 0)
        assert all(msg is not None for msg in folds)
        assert no_reply_event(profiler)
        assert not any(
            site in ("validate", "n*.register", "withdraw", "publish")
            for _, site in profiler.counts
        )


class TestSilentHome:
    """Under a policy a silent home costs its call the whole retry
    ladder, and the join waits for that outcome like any other."""

    def silence(self, cluster, oid, mtype):
        home = home_node(oid, NODES)
        cluster.nodes[home]._handlers[mtype] = lambda msg: None
        return home

    def test_k_way_validation_waits_for_the_silent_home(self):
        cluster = make_cluster(faults=dict(enabled=True))
        env = cluster.env
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=0)
        self.silence(cluster, oids[1], MessageType.READ_VALIDATE)
        policy = cluster.proxies[1].rpc_client.policy
        wait = sum(policy.nth_timeout(i) for i in range(policy.attempts))
        submits = spy_on_submits(cluster.proxies[1].rpc_client)
        engine = cluster.engines[1]
        tx = reads(engine, [(oid, 0) for oid in oids])
        out = {}

        def driver():
            try:
                yield from engine._first_stale([tx], set())
            except TransactionAborted as abort:
                out["abort"] = (abort.reason, abort.oid, env.now)

        proc = env.process(driver(), name="n1.driver")
        env.run(until=wait / 2)
        replies = [reply for _t, _name, _p, reply in submits]
        assert len(replies) == K and out == {}
        # the answered calls resolved long ago; the join still waits
        assert [r.triggered for r in replies] == [True, False, True, True]
        env.run(until=proc)
        verdicts = [
            None if r.value is None else r.value.payload["valid"]
            for r in replies
        ]
        assert verdicts == [True, None, True, True]
        assert out["abort"] == (
            AbortReason.OWNER_FAILURE, oids[1], pytest.approx(wait)
        )

    def test_registration_withdraws_only_after_the_join(self):
        cluster = make_cluster(faults=dict(enabled=True))
        env = cluster.env
        oids = remote_oids(1)
        for oid in oids:
            cluster.alloc(oid, 0, node=1)
        self.silence(cluster, oids[2], MessageType.DIR_UPDATE)
        client = cluster.proxies[1].rpc_client
        policy = client.policy
        wait = sum(policy.nth_timeout(i) for i in range(policy.attempts))
        submits = spy_on_submits(client)
        posts = []
        original_post = client.post

        def post(dst, endpoint, payload):
            posts.append((env.now, payload["oid"], payload.get("withdraw")))
            return original_post(dst, endpoint, payload)

        client.post = post
        engine = cluster.engines[1]
        out = {}

        def driver():
            root = engine.begin(task_id="t1")
            for oid in oids:
                yield from engine.write(root, oid, 1)
            try:
                yield from engine.commit_root(root)
            except TransactionAborted as abort:
                out["abort"] = (abort.reason, abort.oid, env.now)

        env.run(until=env.process(driver(), name="n1.driver"))
        registered = [
            t for t, name, p, _r in submits
            if name == "dir_update" and not p.get("withdraw")
        ]
        assert len(registered) == K and len(set(registered)) == 1
        ends = registered[0] + wait
        assert out["abort"] == (
            AbortReason.OWNER_FAILURE, oids[2], pytest.approx(ends)
        )
        # one withdraw per registration, every one sent after the join
        assert sorted(oid for _t, oid, _w in posts) == sorted(oids)
        assert all(w for _t, _oid, w in posts)
        assert [t for t, _oid, _w in posts] == [pytest.approx(ends)] * K


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
        tx = reads(engine, [(far, 1), (near, 1)])
        out = []

        def driver():
            out.append((yield from engine._first_stale([tx], set())))

        env.process(driver(), name="driver")
        env.run(until=(lands(near) + lands(far)) / 2)
        assert cache.fences == 1 and cache.owner(near) is None and cache.owner(far) == 0
        assert out == []  # the join is still waiting
        env.run()
        assert cache.fences == 2 and cache.owner(far) is None
        assert out == [(tx, far)]  # both stale; the first in order decides
        assert env.now == lands(far)


class TestAttribution:
    """Every reply call and the join wake-up run at the waiting node:
    the explorer and the profiler name it, and neither takes the call
    for a message arrival."""

    def signal_entries(self, cluster, proc):
        """Step ``proc`` to its end; return the call entry of every
        :class:`Signal` that fired on the way, in firing order."""
        env = cluster.env
        fired = []
        while not proc.triggered:
            for entry in env.pending_entries():
                owner = getattr(entry[3], "__self__", None)
                if isinstance(owner, Signal) and all(owner is not s for s, _ in fired):
                    fired.append((owner, entry))
            env.step()
        return fired

    def check(self, signal, entry, node):
        assert site_of(entry[3]) == "n*.rpc" and signal.name == f"n{node}.rpc"
        assert entry[4] is None and _delivery_dst(entry) is None
        assert _entry_sites(entry) == frozenset({node})

    def test_validation_reply_event_belongs_to_the_validating_node(self):
        cluster = make_cluster()
        oids = remote_oids(3)
        engine = cluster.engines[3]
        tx = reads(engine, [(oid, 0) for oid in oids])

        def driver():
            yield from engine._first_stale([tx], set())

        proc = cluster.env.process(driver(), name="n3.driver")
        fired = self.signal_entries(cluster, proc)
        replies = [s for s, _ in fired if isinstance(s.value, Message)]
        joins = [s for s, _ in fired if s.value is None]
        assert len(replies) == K and len(joins) == 1
        for signal, entry in fired:
            self.check(signal, entry, 3)

    def test_registration_reply_event_belongs_to_the_committing_node(self):
        cluster = make_cluster()
        oids = remote_oids(2)
        for oid in oids:
            cluster.alloc(oid, 0, node=2)
        proc = cluster.spawn(cluster.atomic(write_all(oids), node=2), name="tx@2")
        fired = self.signal_entries(cluster, proc)
        ack = ENDPOINTS.get("dir_update").reply
        registering = [
            s for s, _ in fired
            if isinstance(s.value, Message) and s.value.mtype == ack
        ]
        assert len(registering) == K
        for signal, entry in fired:
            self.check(signal, entry, 2)
        assert proc.ok
