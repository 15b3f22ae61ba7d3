"""Unit tests for the Environment event loop, and the kernel-level
equivalence pins: ``step()``, ``run()``, a pass-through
``ScheduleController`` and both ``KernelProfiler`` modes process one and
the same schedule under every stop condition."""

import pytest

from repro.prof import KernelProfiler
from repro.sim import Environment, Event, ScheduleController, SimulationError
from repro.sim.core import EmptySchedule


class TestClockAndRun:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=10.5).now == 10.5

    def test_run_until_time_stops_clock_exactly(self, env):
        def body(env):
            while True:
                yield env.timeout(3)

        env.process(body(env))
        env.run(until=7)
        assert env.now == 7.0

    def test_run_until_time_in_past_rejected(self, env):
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=2)

    def test_run_until_nan_rejected(self, env):
        # Both of run()'s comparisons against a NaN horizon are false:
        # unrefused, it would run the schedule dry and return.
        env.timeout(1)
        with pytest.raises(ValueError, match="nan"):
            env.run(until=float("nan"))
        assert env.now == 0.0 and env.events_processed == 0

    def test_run_until_event_returns_value(self, env):
        def body(env):
            yield env.timeout(2)
            return "val"

        p = env.process(body(env))
        assert env.run(until=p) == "val"
        assert env.now == 2.0

    def test_run_until_event_raises_on_failure(self, env):
        def body(env):
            yield env.timeout(1)
            raise ValueError("nope")

        p = env.process(body(env))
        with pytest.raises(ValueError, match="nope"):
            env.run(until=p)

    def test_run_until_never_fired_event_raises(self, env):
        ev = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError, match="exhausted"):
            env.run(until=ev)

    def test_run_to_exhaustion(self, env):
        def body(env):
            yield env.timeout(4)

        env.process(body(env))
        env.run()
        assert env.now == 4.0

    def test_run_until_past_exhaustion_advances_clock(self, env):
        def body(env):
            yield env.timeout(2)

        env.process(body(env))
        env.run(until=100)
        assert env.now == 100.0

    def test_max_events_guard(self, env):
        def spinner(env):
            while True:
                yield env.timeout(1)

        env.process(spinner(env))
        with pytest.raises(SimulationError, match="max_events"):
            env.run(max_events=10)

    def test_events_processed_counter(self, env):
        def body(env):
            yield env.timeout(1)
            yield env.timeout(1)

        env.process(body(env))
        env.run()
        assert env.events_processed >= 3  # bootstrap + 2 timeouts


class TestStepAndPeek:
    def test_step_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_returns_next_event_time(self, env):
        env.timeout(5)
        env.timeout(3)
        assert env.peek() == 3.0

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_step_advances_clock(self, env):
        env.timeout(2.5)
        env.step()
        assert env.now == 2.5

    def test_peek_inside_callbacks_does_not_perturb_the_run(self):
        # peek() is a pure read of the schedule head: a run with
        # processes that peek between yields must be byte-identical to
        # one without.
        def worker(env, log, peeking):
            for i in range(4):
                yield env.timeout(0.001)
                if peeking:
                    env.peek()
                log.append((round(env.now, 9), i))

        def run(peeking):
            env = Environment()
            log = []
            for node in range(2):
                env.process(worker(env, log, peeking), name=f"n{node}")
            env.run()
            return env.events_processed, env.now, log

        assert run(True) == run(False)

    def test_time_never_goes_backwards(self, env):
        times = []

        def body(env, d):
            yield env.timeout(d)
            times.append(env.now)

        for d in [5, 1, 3, 2, 4]:
            env.process(body(env, d))
        env.run()
        assert times == sorted(times)


class TestDeterminism:
    @staticmethod
    def _run_once(seed):
        from repro.sim import RngRegistry

        env = Environment()
        rng = RngRegistry(seed=seed).stream("test")
        log = []

        def worker(env, wid):
            for _ in range(20):
                yield env.timeout(float(rng.uniform(0.1, 2.0)))
                log.append((round(env.now, 9), wid))

        for wid in range(5):
            env.process(worker(env, wid))
        env.run()
        return log

    def test_same_seed_same_trace(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_trace(self):
        assert self._run_once(7) != self._run_once(8)

    def test_same_time_events_fire_in_schedule_order(self, env):
        order = []

        def body(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in "abcde":
            env.process(body(env, tag))
        env.run()
        assert order == list("abcde")


class TestSchedulingInvariants:
    def test_event_cannot_be_scheduled_twice(self, env):
        ev = env.event().succeed(1)
        with pytest.raises(SimulationError):
            env._enqueue(0.0, 1, ev)


def _reference_run(env, until=None, max_events=None):
    """``Environment.run``'s contract spelled out over ``step()``."""
    stop_time = float("inf") if until is None or isinstance(until, Event) else until
    limit = None if max_events is None else env.events_processed + max_events
    while env._queue:
        if isinstance(until, Event) and until.processed:
            break
        if env.peek() > stop_time:
            break
        if limit is not None and env.events_processed >= limit:
            raise SimulationError(f"exceeded max_events={max_events}")
        env.step()
    if isinstance(until, Event):
        return until.value
    if env.now < stop_time < float("inf"):
        env._now = stop_time  # the horizon epilogue
    return None


#: every way the kernel can execute a schedule
MODES = ["step", "run", "controller", "profiled", "profiled-wall"]


def _execute(env, mode, **run_args):
    """Run ``env`` under ``mode``; returns ``(result, profiler)`` where
    ``result`` is run()'s return value or the exception it raised."""
    profiler = None
    if mode == "controller":
        env.controller = ScheduleController()
    elif mode.startswith("profiled"):
        profiler = KernelProfiler(wall=mode == "profiled-wall").install(env)
    try:
        if mode == "step":
            result = _reference_run(env, **run_args)
        else:
            result = env.run(**run_args)
    except (SimulationError, ValueError) as exc:
        result = (type(exc).__name__, str(exc))
    return result, profiler


class TestKernelEquivalence:
    """One loop, five ways to drive it: ``step()`` (the single-pop
    reference), plain ``run()``, a pass-through controller and both
    profiler modes must process the identical event sequence under every
    stop condition."""

    @staticmethod
    def _storm(env, node, log):
        while True:
            slot = int(round(env.now * 1000.0))
            hop = 0.001 * (1 + (slot + node) % 5)
            deliveries = [env.timeout(hop + 0.001 * k) for k in range(4)]
            if (slot + node) % 7 == 0:
                env.timeout(300.0)  # never fires; far-band ballast
            log.append((round(env.now, 9), node))
            yield deliveries[node % 4]

    @staticmethod
    def _bomb(env):
        yield env.timeout(0.0505)
        raise ValueError("boom")

    @classmethod
    def _run_storm(cls, mode, stop="max_events"):
        env = Environment()
        log = []
        for node in range(12):
            env.process(cls._storm(env, node, log), name=f"n{node}")
        if stop == "max_events":  # overrun: SimulationError after 4000
            run_args = {"max_events": 4000}
        elif stop == "until-time":
            run_args = {"until": 0.2005}
        elif stop == "until-event":
            run_args = {"until": env.timeout(0.1505, "done")}
        else:  # an undefused failure crashes the run
            assert stop == "failure"
            env.process(cls._bomb(env), name="bomb")
            run_args = {}
        result, profiler = _execute(env, mode, **run_args)
        return (env.events_processed, env.now, log, result), profiler

    @pytest.mark.parametrize(
        "stop", ["max_events", "until-time", "until-event", "failure"]
    )
    def test_every_mode_matches_run(self, stop):
        outcomes = {mode: self._run_storm(mode, stop)[0] for mode in MODES}
        events, now, log, result = outcomes["run"]
        assert events > 500 and len(log) > 100  # the storm really ran
        assert result == {
            "max_events": ("SimulationError", "exceeded max_events=4000"),
            "until-time": None,
            "until-event": "done",
            "failure": ("ValueError", "boom"),
        }[stop]
        if stop == "max_events":
            assert events == 4000
        if stop == "until-time":
            assert now == 0.2005
        for mode in MODES:
            assert outcomes[mode] == outcomes["run"], mode

    @pytest.mark.parametrize("mode", ["profiled", "profiled-wall"])
    def test_profiler_counts_are_the_batch_drain_builds(self, mode):
        # Counts recorded from the build that profiled through its own
        # copy of the run loop (PR 15); dispatch() must attribute the
        # same storm identically.
        (events, _now, _log, _result), profiler = self._run_storm(mode)
        assert profiler.events == events == 4000
        assert profiler.event_counts == {"Event": 12, "Timeout": 3988}
        assert profiler.counts == {("Event", "n*"): 12, ("Timeout", "n*"): 996}
        assert set(profiler.wall_ns) == (
            set(profiler.counts) if mode == "profiled-wall" else set()
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_urgent_push_runs_before_the_remaining_ties(self, mode):
        # A process spawned from inside a callback schedules its
        # bootstrap *urgently* at the current time: it must run before
        # the remaining normal-priority ties at that time, in every
        # mode ((t, 0, seq) < (t, 1, seq') in tuple order).
        env = Environment()
        order = []

        def child(env):
            order.append("child")
            return
            yield  # pragma: no cover - makes child() a generator

        def root(env):
            yield env.timeout(1.0)
            one, two, three = env.event(), env.event(), env.event()

            def cb1(event):
                order.append("cb1")
                env.process(child(env))

            one.add_callback(cb1)
            two.add_callback(lambda event: order.append("cb2"))
            three.add_callback(lambda event: order.append("cb3"))
            # All three land as normal-priority ties at t=1; cb1 then
            # pushes the child's urgent bootstrap in front of two/three.
            one.succeed(None)
            two.succeed(None)
            three.succeed(None)

        env.process(root(env), name="root")
        result, _profiler = _execute(env, mode)
        assert result is None
        assert order == ["cb1", "child", "cb2", "cb3"]
