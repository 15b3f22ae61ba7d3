"""The message hop's Python budget, as a count of interpreter frames.

One blocking RPC is two messages and five kernel events; what each
costs the host is the Python that runs per hop.  The ledger
(``benchmarks/e2e``) resolves microseconds per commit and cannot see one
frame, so this file counts them: ``sys.setprofile`` ``call`` events
(Python function entries and generator resumptions; C calls are
``c_call`` and not counted) whose code lives under ``src/repro``, during
``env.run()``, divided by the round trips made.  The bounds are upper
bounds — 3.12 inlines comprehensions, so the exact figure moves with the
interpreter.

Recorded with CPython 3.11.7, frames under ``src/repro`` per round trip,
parent 96fe186 → this change.  (Counting *every* Python frame — the
test's own generator and handler, and at the parent the dataclass's
generated ``__init__``, whose file is ``<string>`` — adds 4.0 → 2.0; the
issue's "57.0" is that count.)

* blocking ``RpcClient.call``: 53.0 → 30.0;
* ``k = 4`` ``RpcClient.submit`` fan-out joined by ``env.all_of``, per
  member: 57.0 → 30.5 (228.0 → 122.0 per fan-out);
* batched route, a 2 ms window, one message per batch: 75.0 → 38.0 per
  round trip, i.e. 11 → 4 frames per batch over the plain route.
"""

import sys
from pathlib import Path

import repro
from repro.net import Network, Node, Topology
from repro.rpc import PiggybackBatcher, RpcClient, serve
from repro.sim import Environment, RngRegistry

SRC = str(Path(repro.__file__).resolve().parent)
SVC = 5e-4
TRIPS = 100
#: frames per blocking round trip the plain route may cost
BUDGET = 34
#: frames one flushed batch may add: the flush Timeout, _flush,
#: deliver_batch and _deliver_riders (per member, enqueue replaces the
#: plain route's _deliver one for one)
FLUSH_FRAMES = 4


def build(env):
    """The 2-node cell: node 1 serves ``read_validate``, node 0 calls."""
    topo = Topology(2, RngRegistry(seed=4).stream("topo"))
    net = Network(env, topo)
    nodes = [Node(env, net, i, msg_process_time=SVC) for i in range(2)]
    serve(nodes[1], "read_validate", lambda msg: {"ok": True})
    return net, RpcClient(nodes[0])


def frames_during_run(env):
    """Python frames entered under ``src/repro`` while ``env.run()`` runs."""
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        env.run()
    finally:
        sys.setprofile(previous)
    # the profiler sees env.run() itself enter; that one is not a hop's
    return calls - 1


def blocking_calls(env, client):
    payload = {"oid": "x", "version": 0}

    def caller():
        for _ in range(TRIPS):
            reply = yield from client.call(1, "read_validate", payload)
            assert reply.payload == {"ok": True}

    env.process(caller())


class TestHopBudget:
    def test_blocking_round_trip(self):
        env = Environment()
        net, client = build(env)
        blocking_calls(env, client)
        per_trip = frames_during_run(env) / TRIPS
        assert net.messages_delivered.value == 2 * TRIPS
        assert per_trip <= BUDGET, per_trip

    def test_four_way_fanout_joined_with_all_of(self):
        env = Environment()
        net, client = build(env)
        payload = {"oid": "x", "version": 0}
        k = 4

        def caller():
            for _ in range(TRIPS):
                replies = [
                    client.submit(1, "read_validate", payload) for _ in range(k)
                ]
                done = yield env.all_of(replies)
                assert len(done) == k

        env.process(caller())
        per_member = frames_during_run(env) / (TRIPS * k)
        assert net.messages_delivered.value == 2 * k * TRIPS
        assert per_member <= BUDGET, per_member

    def test_batched_route_adds_only_the_flush(self):
        plain_env = Environment()
        _, client = build(plain_env)
        blocking_calls(plain_env, client)
        plain = frames_during_run(plain_env)

        env = Environment()
        net, client = build(env)
        batcher = PiggybackBatcher(env, window=0.002).install(net)
        blocking_calls(env, client)
        batched = frames_during_run(env)
        assert net.messages_delivered.value == 2 * TRIPS
        # a blocking caller never has two messages on one link at once
        assert batcher.batches == 2 * TRIPS and batcher.max_batch == 1
        assert batched - plain <= FLUSH_FRAMES * batcher.batches
