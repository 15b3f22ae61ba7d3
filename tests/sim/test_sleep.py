"""A process's sleep: yielding a plain ``float`` (or ``int``) delay.

A process that only waits a delay out yields the delay itself.  Its step
pushes one call entry, ``(now + d, PRIORITY_NORMAL, next seq, step,
None)`` — the key a :class:`~repro.sim.Timeout` built at the same point
pushes — so a sleep orders against calls and events exactly as that
``Timeout`` would, with no Event behind it.
"""

import math

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.executor import WorkloadExecutor
from repro.dstm.errors import AbortReason, TransactionAborted
from repro.prof.kernel import KernelProfiler
from repro.sim import Environment, Timeout
from repro.workloads.vacation import VacationWorkload


def tied_schedule(env, log, wait):
    """A waiter (``wait(env)`` is what it yields) tied at t = 1 with a
    call and a Timeout pushed before its wait and a call and a Timeout
    pushed after it."""

    def note(tag):
        log.append((env.now, tag))

    def waiter():
        got = yield wait(env)
        note(("waiter", got))

    def push_after(_arg):
        env.call_later(1.0, note, "call-after")
        Timeout(env, 1.0).callbacks.append(lambda _ev: note("timeout-after"))

    env.call_later(1.0, note, "call-before")
    Timeout(env, 1.0).callbacks.append(lambda _ev: note("timeout-before"))
    env.process(waiter(), name="waiter")  # its urgent bootstrap runs it to its wait
    env.call_later(0.0, push_after)  # after that bootstrap, at t = 0


def sleep(_env):
    return 1.0


def timeout(env):
    return env.timeout(1.0)


class TestSleep:
    def test_resumes_at_exactly_now_plus_d_with_none(self):
        env = Environment()
        seen = []

        def sleeper():
            yield env.timeout(0.1)
            got = yield 0.2
            seen.append((env.now, got))

        env.process(sleeper())
        env.run()
        assert seen == [(0.1 + 0.2, None)]

    def test_a_sleep_is_one_call_entry_at_normal_priority(self):
        env = Environment()

        def sleeper():
            yield 0.5

        proc = env.process(sleeper(), name="s")
        env.step()  # the bootstrap runs the body to its sleep
        [(when, prio, seq, fn, arg)] = env.pending_entries()
        assert (when, prio, seq, arg) == (0.5, 1, env._seq, None)
        assert fn.__self__ is proc

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_ties_pop_where_a_timeout_pushed_at_that_point_would(self, drive):
        logs, keys, counts = {}, {}, {}
        for name, wait in (("sleep", sleep), ("timeout", timeout)):
            env = Environment()
            log = logs[name] = []
            tied_schedule(env, log, wait)
            env.run(until=0.5)  # every push made, nothing at t = 1 popped
            keys[name] = sorted(entry[:3] for entry in env.pending_entries())
            if drive == "run":
                env.run()
            else:
                while env.peek() != math.inf:
                    env.step()
            counts[name] = env.events_processed
        assert keys["sleep"] == keys["timeout"]
        assert logs["sleep"] == logs["timeout"] == [
            (1.0, "call-before"), (1.0, "timeout-before"),
            (1.0, ("waiter", None)),
            (1.0, "call-after"), (1.0, "timeout-after"),
        ]
        # the sleep is one entry where the Timeout was one: same count
        assert counts["sleep"] == counts["timeout"]

    @pytest.mark.parametrize("bad", [math.nan, -1e-9, -math.inf])
    def test_nan_and_negative_delays_throw_timeouts_value_error(self, bad):
        env = Environment()
        with pytest.raises(ValueError) as refused:
            Timeout(env, bad)
        caught = []

        def sleeper():
            try:
                yield bad
            except ValueError as exc:
                caught.append((env.now, str(exc)))
            yield 0.25  # the process goes on after catching it
            caught.append(env.now)

        env.process(sleeper())
        env.run()
        assert caught == [(0.0, str(refused.value)), 0.25]

    def test_an_uncaught_bad_delay_fails_the_process(self):
        env = Environment()

        def sleeper():
            yield -1.0

        def parent():
            with pytest.raises(ValueError, match="delay must be >= 0"):
                yield env.process(sleeper())
            return True

        proc = env.process(parent())
        env.run()
        assert proc.value is True

    def test_an_int_sleeps_as_the_equal_float_and_a_bool_does_not(self):
        keys = {}
        for delay in (1, 1.0):
            env = Environment()

            def sleeper(delay=delay):
                yield delay

            env.process(sleeper())
            env.step()  # the bootstrap runs the body to its sleep
            [(when, prio, seq, _fn, arg)] = env.pending_entries()
            keys[delay.__class__] = (when, prio, seq, arg)
        assert keys[int] == keys[float] == (1.0, 1, keys[float][2], None)

        env = Environment()
        caught = []

        def negative():
            try:
                yield -1
            except ValueError as exc:
                caught.append(str(exc))

        env.process(negative())
        env.run()
        assert caught == ["delay must be >= 0 and not NaN, got -1"]

        def boolean():
            yield True

        with pytest.raises(RuntimeError, match="must\\s+yield Event"):
            env.process(boolean())
            env.run()

    def test_inf_stays_legal(self):
        env = Environment()
        woke = []

        def sleeper():
            yield math.inf
            woke.append(env.now)

        env.process(sleeper())
        env.run(until=1e9)
        assert woke == [] and env.peek() == math.inf
        env.run()
        assert woke == [math.inf]


class TestClosedLoopCell:
    def test_vacation_workers_sleep_on_calls_not_timeouts(self):
        """A closed-loop vacation cell: a worker's plain waits — a
        transactional operation's local time, a retry stall, an RPC
        reply — are call entries at the ``worker`` site, never a
        ``Timeout``."""
        cluster = Cluster(ClusterConfig(num_nodes=3, seed=5))
        executor = WorkloadExecutor(
            cluster, VacationWorkload(read_fraction=0.1),
            workers_per_node=2, stop_after_commits=30,
        )
        executor.setup()
        profiler = KernelProfiler().install(cluster.env)
        executor.run()
        assert cluster.metrics.commits.value >= 30
        counts = profiler.counts
        worker_kinds = {kind for kind, site in counts if site == "worker"}
        # besides calls: each worker's bootstrap, and the hand-off race
        # (an AnyOf over the waiter and its Timeout) when one was queued
        assert "Timeout" not in worker_kinds
        assert worker_kinds <= {"call", "Event", "AnyOf"}
        assert counts[("Event", "worker")] == 6
        assert counts[("call", "worker")] > 20 * 30


class TestRetryStalls:
    """A retry stall is a sleep even when the policy's backoff is an
    ``int`` (a valid ``float`` return)."""

    @pytest.fixture
    def cluster(self, monkeypatch):
        cluster = Cluster(ClusterConfig(num_nodes=2, seed=1))
        cluster.alloc("x", 0, node=0)
        monkeypatch.setattr(
            cluster.proxies[0].scheduler, "retry_backoff",
            lambda root, reason, attempt: 1,
        )
        return cluster

    def test_root_retry(self, cluster):
        attempts = []

        def body(tx):
            attempts.append(cluster.env.now)
            value = yield from tx.read("x")
            if len(attempts) == 1:
                raise TransactionAborted(
                    tx.transaction.root, AbortReason.EARLY_VALIDATION
                )
            return value

        assert cluster.run_transaction(body, node=0) == 0
        assert len(attempts) == 2 and attempts[1] - attempts[0] >= 1.0

    def test_nested_retry(self, cluster):
        attempts = []

        def child(tx):
            attempts.append(cluster.env.now)
            value = yield from tx.read("x")
            if len(attempts) == 1:
                tx.retry_nested()
            return value

        def body(tx):
            return (yield from tx.nested(child))

        assert cluster.run_transaction(body, node=0) == 0
        assert len(attempts) == 2 and attempts[1] - attempts[0] >= 1.0
