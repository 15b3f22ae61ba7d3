"""Call entries: ``Environment.call_later`` and the two entry kinds.

A schedule entry is an event (``fn is None``) or a call (``fn(arg)``).
A call takes the next sequence number like any push, so it orders
against events exactly as the ``Timeout`` it replaces would.
"""

import math

import pytest

from repro.prof.kernel import KernelProfiler, site_of
from repro.sim import (
    PRIORITY_URGENT,
    Environment,
    ScheduleController,
    SimulationError,
    Timeout,
)


def mixed_schedule(env, log):
    """Calls, timeouts, an urgent event and a process, tied at t = 1."""

    def note(tag):
        log.append((env.now, tag))

    def proc():
        yield env.timeout(1.0)
        note("proc")

    env.call_later(1.0, note, "call-a")
    Timeout(env, 1.0).callbacks.append(lambda _ev: note("timeout"))
    env.call_later(1.0, note, "call-b")
    env.process(proc(), name="p")
    Timeout(env, 1.0, priority=PRIORITY_URGENT).callbacks.append(
        lambda _ev: note("urgent")
    )
    env.call_later(0.5, note, "early")
    env.call_later(2.0, note, "late")


class TestOrdering:
    def test_ties_fire_in_seq_order_and_urgent_first(self):
        env = Environment()
        log = []
        mixed_schedule(env, log)
        env.run()
        assert log == [
            (0.5, "early"),
            (1.0, "urgent"),
            (1.0, "call-a"), (1.0, "timeout"), (1.0, "call-b"), (1.0, "proc"),
            (2.0, "late"),
        ]

    def test_a_call_takes_the_seq_a_timeout_would(self):
        env = Environment()
        Timeout(env, 1.0)
        env.call_later(1.0, print)
        Timeout(env, 1.0)
        seqs = sorted(entry[2] for entry in env.pending_entries())
        assert seqs == [1, 2, 3]
        kinds = sorted((entry[2], entry[3] is None) for entry in env.pending_entries())
        assert kinds == [(1, True), (2, False), (3, True)]

    def test_step_and_run_agree_on_a_mixed_schedule(self):
        ran, stepped = [], []
        env = Environment()
        mixed_schedule(env, ran)
        env.run()

        env = Environment()
        mixed_schedule(env, stepped)
        while env.peek() != math.inf:
            env.step()
        assert stepped == ran
        # six timers, plus the process's bootstrap, timeout and termination
        assert env.events_processed == 9

    def test_calls_count_as_processed_events(self):
        env = Environment()
        for k in range(5):
            env.call_later(0.1 * k, lambda _arg: None)
        env.run()
        assert env.events_processed == 5

    def test_a_call_can_reschedule_itself(self):
        env = Environment()
        fired = []

        def hop(n):
            fired.append((env.now, n))
            if n < 3:
                env.call_later(0.25, hop, n + 1)

        env.call_later(0.25, hop, 1)
        env.run()
        assert fired == [(0.25, 1), (0.5, 2), (0.75, 3)]


class TestRefusals:
    @pytest.mark.parametrize("delay", [float("nan"), -1.0, -1e-12])
    def test_nan_and_negative_delays_are_refused(self, delay):
        env = Environment()
        with pytest.raises(ValueError, match="delay"):
            env.call_later(delay, print)
        assert env.pending_entries() == []

    def test_zero_and_infinite_delays_are_accepted(self):
        env = Environment()
        env.call_later(0.0, print)
        env.call_later(math.inf, print)
        assert sorted(entry[0] for entry in env.pending_entries()) == [0.0, math.inf]

    def test_an_exception_in_fn_propagates_out_of_run(self):
        env = Environment()

        class Boom(Exception):
            pass

        def explode(arg):
            raise Boom(arg)

        env.call_later(1.0, explode, "bang")
        env.call_later(2.0, print, "never")
        with pytest.raises(Boom, match="bang"):
            env.run()
        assert env.now == 1.0
        assert len(env.pending_entries()) == 1

    def test_an_exception_in_fn_propagates_out_of_step(self):
        env = Environment()

        def explode(_arg):
            raise KeyError("step")

        env.call_later(0.0, explode)
        with pytest.raises(KeyError):
            env.step()


class DeferFirstCall(ScheduleController):
    """Defers the first call entry it sees in a ready set, once."""

    def __init__(self):
        self.deferred = None

    def select(self, env, when, priority, ready, next_time):
        if self.deferred is None:
            for i, entry in enumerate(ready):
                if entry[3] is not None:
                    self.deferred = entry
                    return ("defer", i, 0.5)
        return 0


def test_controller_defer_repushes_the_same_fn_and_arg():
    env = Environment()
    log = []

    def note(tag):
        log.append((env.now, tag))

    env.call_later(1.0, note, "moved")
    env.call_later(1.0, note, "stays")
    controller = DeferFirstCall()
    env.controller = controller
    env.run(until=1.0)
    (entry,) = env.pending_entries()
    when, prio, seq, fn, arg = entry
    assert (when, fn, arg) == (1.5, note, "moved")
    assert (fn, arg) == controller.deferred[3:]
    assert seq > controller.deferred[2]  # a fresh seq
    env.run()
    assert log == [(1.0, "stays"), (1.5, "moved")]


def test_controller_can_pick_a_call_over_an_earlier_event():
    class PickLast(ScheduleController):
        def select(self, env, when, priority, ready, next_time):
            return len(ready) - 1

    env = Environment()
    log = []
    Timeout(env, 1.0).callbacks.append(lambda _ev: log.append("timeout"))
    env.call_later(1.0, log.append, "call")
    env.controller = PickLast()
    env.run()
    assert log == ["call", "timeout"]


class TestProfiler:
    def test_call_entries_are_counted_under_kind_call(self):
        env = Environment()
        profiler = KernelProfiler().install(env)

        class Chain:
            name = "n3.inbox"

            def tick(self, n):
                if n:
                    env.call_later(0.1, self.tick, n - 1)

        env.call_later(0.0, Chain().tick, 3)
        Timeout(env, 0.05)
        env.run()
        assert profiler.counts == {("call", "n*.inbox"): 4}
        assert profiler.event_counts == {"Timeout": 1, "call": 4}
        assert profiler.events == env.events_processed == 5

    def test_wall_mode_meters_calls(self):
        env = Environment()
        profiler = KernelProfiler(wall=True).install(env)

        def work(_arg):
            sum(range(1000))

        env.call_later(0.0, work)
        env.run()
        key = ("call", site_of(work))
        assert profiler.counts == {key: 1}
        assert key in profiler.wall_ns

    def test_profiled_run_keeps_the_order(self):
        plain, profiled = [], []
        env = Environment()
        mixed_schedule(env, plain)
        env.run()
        env = Environment()
        KernelProfiler().install(env)
        mixed_schedule(env, profiled)
        env.run()
        assert profiled == plain

    def test_a_failing_call_still_surfaces_under_the_profiler(self):
        env = Environment()
        KernelProfiler().install(env)

        def explode(_arg):
            raise SimulationError("from a call")

        env.call_later(0.0, explode)
        with pytest.raises(SimulationError, match="from a call"):
            env.run()
