"""The message hop's Python budget, as a count of interpreter frames.

One blocking RPC is two messages and five kernel entries (four message
calls and the reply's call); what each costs the host is the Python that
runs per hop.  The ledger (``benchmarks/e2e``) resolves microseconds per commit
and cannot see one frame, so this file counts them: ``sys.setprofile`` ``call`` events
(Python function entries and generator resumptions; C calls are
``c_call`` and not counted) whose code lives under ``src/repro``, during
``env.run()``, divided by the round trips made.  The bounds are upper
bounds — 3.12 inlines comprehensions, so the exact figure moves with the
interpreter.  The cyclic collector is off while counting: a collection
that closes a generator left suspended by earlier code resumes that
generator's frame, which would be counted against the hop.

Recorded with CPython 3.11.7, frames under ``src/repro`` per round trip,
before → after a message's link delay and service period became kernel
call entries instead of two ``Timeout`` events:

* blocking ``RpcClient.call``: 31.0 → 23.0;
* ``k = 4`` ``RpcClient.submit`` fan-out joined by ``env.all_of``, per
  member: 31.5 → 23.5;
* batched route, a 2 ms window, one message per batch: 39.0 → 35.0 per
  round trip, i.e. 4 → 6 frames per batch over the plain route (the
  plain route's push is inlined and costs no frame, so the batcher's
  ``enqueue`` no longer replaces one).

and after the batcher inlined its two pushes (the flush entry and the
riders' entry) and ``_flush`` stopped relaying through the network:

* batched route: 35.0 → 29.0 per round trip, i.e. 6 → 3 frames per batch
  over the plain route.

and after a reply became a :class:`~repro.sim.Signal` (one call entry, no
``Event``) and a fan-out's ``AllOf`` a counting ``RpcClient.join``:

* blocking ``RpcClient.call``: 23.0 → 23.0 — ``Signal.__init__`` and
  ``Signal._fire`` take the frames of ``Event.__init__`` and
  ``Process._resume``, so the gate stays at 26;
* ``k = 4`` fan-out, per member: 23.5 → 23.26 — the join and its leg
  closure replace ``AllOf``'s condition lambda, ``_check`` and
  ``_collect`` (the test's fold is not under ``src/repro``).

and after the reply's dispatch pushed the signal's call entry itself
(no ``Signal.succeed``) and a policy-free, untraced ``RpcClient.call``
or ``submit`` stopped going through ``RpcClient._issue``:

* blocking ``RpcClient.call``: 23.03 → 21.03;
* ``k = 4`` fan-out, per member: 23.26 → 21.26;
* batched route: 29.03 → 27.03 per round trip, still 3 frames per batch
  over the plain route;

so the gate came down from 26 to 23, about 10 % above the blocking
figure.

Then ``serve`` bound the server function with its endpoint's reply type
(``Node.on(mtype, fn, reply=...)``: the node's dispatch sends the reply,
so no ``handler`` closure and no ``Node.reply`` frame) and a service
period matched a reply to its waiter inline (no ``Node._dispatch``
frame for a reply; a request goes on to ``Node._handle``):

* blocking ``RpcClient.call``: 21.03 → 18.03;
* ``k = 4`` fan-out, per member: 21.2575 → 18.2575;
* batched route: 27.03 → 24.03 per round trip, still 3 frames per batch
  over the plain route;

so the gate came down from 23 to 20, about 10 % above the blocking
figure.
"""

import gc
import sys
from pathlib import Path

import repro
from repro.net import Network, Node, Topology
from repro.prof.kernel import KernelProfiler
from repro.rpc import RpcClient, serve
from repro.rpc.batch import PiggybackBatcher
from repro.sim import Environment, RngRegistry

SRC = str(Path(repro.__file__).resolve().parent)
SVC = 5e-4
TRIPS = 100
#: frames per blocking round trip the plain route may cost
BUDGET = 20
#: frames one flushed batch may add: enqueue, _flush and _deliver_riders
FLUSH_FRAMES = 3


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

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        env.run()
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
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

    def test_four_way_fanout_joined_by_one_join(self):
        env = Environment()
        net, client = build(env)
        payload = {"oid": "x", "version": 0}
        k = 4
        landed = []

        def caller():
            for _ in range(TRIPS):
                replies = [
                    client.submit(1, "read_validate", payload) for _ in range(k)
                ]
                yield client.join(replies, landed.append)

        env.process(caller())
        per_member = frames_during_run(env) / (TRIPS * k)
        assert net.messages_delivered.value == 2 * k * TRIPS
        assert len(landed) == k * TRIPS
        assert all(reply.payload == {"ok": True} for reply in landed)
        assert per_member <= BUDGET, per_member

    def test_calls_and_fanouts_construct_no_event(self):
        """A blocking call and a 4-way fan-out wake their waiter with call
        entries alone: no reply event, no ``AllOf``."""
        env = Environment()
        _, client = build(env)
        payload = {"oid": "x", "version": 0}
        k = 4

        def caller():
            yield from client.call(1, "read_validate", payload)
            replies = [client.submit(1, "read_validate", payload) for _ in range(k)]
            yield client.join(replies, lambda _reply: None)

        env.process(caller())
        env.step()  # the bootstrap event runs the caller to its first wait
        profiler = KernelProfiler().install(env)
        env.run()
        # per call: two link delays, two service periods and the reply;
        # then the join, and the caller's own end (its Process event)
        assert profiler.event_counts == {"call": 5 * (1 + k) + 1, "Process": 1}
        assert profiler.counts[("call", "n*.rpc")] == 1 + k + 1

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
