"""A reply resumes its waiter inside the entry that delivers it.

When a service period (``_InboxServer._served``), a zero-service arrival
(``Node._dispatch``) or a fan-out's last leg (``RpcClient.join``)
delivers a reply as the last act of its call entry, and the reply's own
call entry would be the kernel's very next pop, the waiter runs in place
(``Signal.deliver``).  These tests hold the two promises that make that
a pure host-cost change:

* **exact** — a seeded cell run with the shortcut and the same cell with
  every reply pushed (``max_events`` set keeps the guard down) give the
  same digest, the same ``events_processed`` and byte-equal obs JSONL;
* **guarded** — the shortcut is off under a schedule controller, a
  kernel profiler, ``max_events``, :meth:`Environment.step` and after a
  ``run()`` that raised.
"""

import sys

import pytest

from repro.core import ClusterConfig, SchedulerKind
from repro.core.cluster import reset_run_ids
from repro.core.config import ObsConfig
from repro.core.experiment import run_experiment
from repro.net import Network, Node, Topology
from repro.prof.kernel import KernelProfiler
from repro.rpc import RpcClient, serve
from repro.sim import Environment, RngRegistry, ScheduleController, Signal

#: (workload, nodes, seed, read fraction, extra ClusterConfig fields)
CELLS = {
    "bank": ("bank", 12, 1, 0.9, {}),
    "vacation": ("vacation", 6, 2, 0.1, {}),
    # zero service time and a batch window: replies dispatch on arrival,
    # and a flushed batch delivers several arrivals in one entry
    "bank-batched-zero-service": (
        "bank", 8, 3, 0.9,
        dict(msg_process_time=0.0, rpc=dict(batch_window=0.002)),
    ),
}


def run_cell(tmp_path, name, *, heap_path):
    """One seeded cell with its obs JSONL; ``heap_path`` forces every
    reply through the schedule.  Returns (digest, events, jsonl, fires)."""
    workload, nodes, seed, reads, extra = CELLS[name]
    reset_run_ids()
    path = tmp_path / f"{name}-{heap_path}.jsonl"
    cfg = ClusterConfig(
        num_nodes=nodes, seed=seed, scheduler=SchedulerKind.RTS,
        cl_threshold=4, obs=ObsConfig(enabled=True, jsonl_path=str(path)),
        **extra,
    )
    fires = 0
    fire = Signal._fire
    run = Environment.run

    def counted_fire(self, arg):
        nonlocal fires
        fires += 1
        fire(self, arg)

    def heap_run(self, until=None, max_events=None):
        return run(self, until, 10**12 if max_events is None else max_events)

    mp = pytest.MonkeyPatch()
    mp.setattr(Signal, "_fire", counted_fire)
    if heap_path:
        mp.setattr(Environment, "run", heap_run)
    try:
        result = run_experiment(
            workload, cfg, read_fraction=reads, workers_per_node=2, horizon=4.0
        )
    finally:
        mp.undo()
    digest = (
        result.commits, result.root_aborts, result.messages_sent,
        result.nested_aborts_own, result.nested_aborts_parent,
        repr(result.mean_commit_latency),
    )
    return digest, result.sim_events, path.read_bytes(), fires


@pytest.mark.parametrize("name", sorted(CELLS))
def test_inline_and_heap_paths_are_the_same_run(tmp_path, name):
    inline = run_cell(tmp_path, name, heap_path=False)
    heap = run_cell(tmp_path, name, heap_path=True)
    assert inline[0] == heap[0]
    assert inline[0][0] > 0  # it committed something
    assert inline[1] == heap[1]  # an inline fire still counts as an entry
    assert inline[2] == heap[2]
    # the shortcut ran: fewer replies went through their call entry
    assert inline[3] < heap[3]


# ----------------------------------------------------------------------
# the guard
# ----------------------------------------------------------------------


def two_nodes(env):
    """Node 1 serves ``read_validate``; returns node 0's client."""
    topo = Topology(2, RngRegistry(seed=4).stream("topo"))
    net = Network(env, topo)
    nodes = [Node(env, net, i, msg_process_time=5e-4) for i in range(2)]
    serve(nodes[1], "read_validate", lambda msg: {"ok": True})
    return RpcClient(nodes[0])


def caller(env, client, seen, calls=1):
    """Blocking calls, then a 2-way fan-out; records the guard and the
    frames each wake-up resumed under."""
    payload = {"oid": "x", "version": 0}

    def stack():
        frame, names = sys._getframe(1), []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        return names

    for _ in range(calls):
        yield from client.call(1, "read_validate", payload)
        seen.append((env._inline, stack()))
    legs = [client.submit(1, "read_validate", payload) for _ in range(2)]
    yield client.join(legs, lambda _reply: None)
    seen.append((env._inline, stack()))


def test_plain_run_resumes_the_waiter_inside_the_delivering_entry():
    env = Environment()
    seen = []
    env.process(caller(env, two_nodes(env), seen))
    env.run()
    (call_inline, call_stack), (join_inline, join_stack) = seen
    assert call_inline and join_inline
    # the blocking reply resumed inside its service period, with no
    # Signal._fire frame; the join inside the last leg's delivery
    assert "_served" in call_stack and "_fire" not in call_stack
    assert "_served" in join_stack and "deliver" in join_stack
    assert not env._inline  # cleared when run() returns


@pytest.mark.parametrize("tool", ["controller", "profiler", "max_events"])
def test_guard_is_down_under_a_tool_or_a_limit(tool):
    env = Environment()
    seen = []
    env.process(caller(env, two_nodes(env), seen))
    kwargs = {}
    if tool == "controller":
        env.controller = ScheduleController()
    elif tool == "profiler":
        KernelProfiler().install(env)
    else:
        kwargs["max_events"] = 10**6
    env.run(**kwargs)
    assert len(seen) == 2
    for inline, stack in seen:
        assert not inline
        assert "_fire" in stack and "_served" not in stack


def test_step_never_resumes_inline():
    env = Environment()
    seen = []
    env.process(caller(env, two_nodes(env), seen))
    while env.peek() != float("inf"):
        env.step()
    assert len(seen) == 2
    assert all(not inline and "_fire" in stack for inline, stack in seen)


def test_guard_is_cleared_after_run_raises():
    env = Environment()

    def boom():
        raise RuntimeError("boom")
        yield  # a generator, failing at its first step

    env.process(boom())
    seen = []
    env.process(caller(env, two_nodes(env), seen, calls=3))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert not env._inline
    while env.peek() != float("inf"):
        env.step()
    assert len(seen) == 4
    assert all(not inline for inline, _stack in seen)


def test_deliver_waits_behind_an_entry_already_due_now():
    """The head at ``now``: the wake-up is pushed behind it, as
    ``succeed`` would push it."""
    env = Environment()
    sig = Signal(env, "s")
    order = []

    def waiter():
        order.append((yield sig))

    env.process(waiter())
    env.call_later(1.0, lambda _: sig.deliver("waiter"))
    env.call_later(1.0, order.append, "other")
    env.call_later(2.0, order.append, "later")
    env.run()
    assert order == ["other", "waiter", "later"]
    # the bootstrap, three calls, the wake-up and the waiter's end
    assert env.events_processed == 6


@pytest.mark.parametrize("heap_path", [False, True])
def test_join_over_landed_replies_pushes(heap_path):
    """A join whose every reply had landed fires inside the caller's
    step, not at the tail of a delivery: its wake-up is pushed, behind
    the rest of the entry the caller resumed in."""
    env = Environment()
    client = two_nodes(env)
    ev = env.event()
    order = []

    def caller():
        sig = client.submit(1, "read_validate", {"oid": "x", "version": 0})
        yield 1.0  # the reply lands with nobody waiting
        yield ev
        yield client.join([sig], lambda _reply: None)
        order.append("joined")

    def trigger():
        yield 2.0
        ev.callbacks.append(lambda _ev: order.append("other"))
        ev.succeed()
        yield 1.0  # nothing else due at 2.0: the head is later than now

    env.process(caller())
    env.process(trigger())
    env.run(max_events=10**6 if heap_path else None)
    assert order == ["other", "joined"]
