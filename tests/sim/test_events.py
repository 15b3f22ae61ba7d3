"""Unit tests for the event primitives."""

import pytest

from repro.sim import Environment, EventAlreadyTriggered, SimulationError, Timeout
from repro.sim.events import AllOf, AnyOf, PRIORITY_URGENT, PRIORITY_NORMAL


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(AttributeError):
            env.event().value

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_succeed_default_value_is_none(self, env):
        assert env.event().succeed().value is None

    def test_fail_sets_exception(self, env):
        exc = ValueError("boom")
        ev = env.event().fail(exc)
        assert ev.triggered
        assert not ev.ok
        assert ev.value is exc

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed(2)

    def test_succeed_then_fail_raises(self, env):
        ev = env.event().succeed(1)
        with pytest.raises(EventAlreadyTriggered):
            ev.fail(ValueError())

    def test_processing_runs_callbacks(self, env):
        ev = env.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("x")
        env.run()
        assert seen == ["x"]
        assert ev.processed

    def test_callback_after_processing_runs_synchronously(self, env):
        ev = env.event().succeed(7)
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_trigger_copies_success(self, env):
        src = env.event().succeed("payload")
        dst = env.event()
        dst.trigger(src)
        assert dst.value == "payload"

    def test_trigger_copies_failure(self, env):
        exc = RuntimeError("bad")
        src = env.event().fail(exc)
        dst = env.event()
        dst.trigger(src)
        assert not dst.ok
        assert dst.value is exc

    def test_repr_reflects_state(self, env):
        ev = env.event()
        assert "pending" in repr(ev)
        ev.succeed()
        assert "triggered" in repr(ev)
        env.run()
        assert "processed" in repr(ev)


class TestTimeout:
    def test_fires_at_delay(self, env):
        fired = []

        def proc(env):
            yield env.timeout(3.5)
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [3.5]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_nan_delay_rejected_before_it_reaches_the_schedule(self, env):
        # NaN compares false with everything: on the heap it would sit
        # wherever it landed and break the pop order silently.
        with pytest.raises(ValueError, match="nan"):
            env.timeout(float("nan"))
        assert env.pending_entries() == []

    def test_infinite_delay_is_legal_and_pops_last(self, env):
        order = []
        env.timeout(float("inf")).add_callback(lambda e: order.append("never"))
        env.timeout(5.0).add_callback(lambda e: order.append("soon"))
        env.run(until=1e9)
        assert order == ["soon"] and env.now == 1e9
        env.run()
        assert order == ["soon", "never"] and env.now == float("inf")

    def test_zero_delay_allowed(self, env):
        out = []

        def proc(env):
            yield env.timeout(0)
            out.append(env.now)

        env.process(proc(env))
        env.run()
        assert out == [0.0]

    def test_carries_value(self, env):
        def proc(env):
            v = yield env.timeout(1, value="hello")
            return v

        p = env.process(proc(env))
        env.run()
        assert p.value == "hello"

    def test_pending_timeout_not_triggered(self, env):
        to = env.timeout(5)
        assert not to.triggered

    @pytest.mark.parametrize(
        "trigger",
        [lambda t: t.fail(ValueError("boom")), lambda t: t.succeed("early")],
        ids=["fail", "succeed"],
    )
    def test_refused_trigger_leaves_the_timeout_intact(self, env, trigger):
        # A Timeout is already scheduled: fail()/succeed() must refuse
        # *before* touching its outcome, or the later run delivers the
        # value (or crashes with the exception) the caller was told had
        # been rejected.
        timeout = env.timeout(5.0, "tick")
        with pytest.raises(SimulationError, match="scheduled twice"):
            trigger(timeout)
        assert not timeout.triggered
        assert env.run(until=timeout) == "tick"
        assert env.now == 5.0

    def test_repr(self, env):
        assert "2" in repr(env.timeout(2))


class TestConditions:
    def test_anyof_first_wins(self, env):
        def proc(env):
            a = env.timeout(1, "a")
            b = env.timeout(2, "b")
            got = yield AnyOf(env, [a, b])
            return (env.now, list(got.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (1.0, ["a"])

    def test_anyof_simultaneous_collects_in_order(self, env):
        def proc(env):
            a = env.timeout(1, "a")
            b = env.timeout(1, "b")
            got = yield AnyOf(env, [a, b])
            return list(got.values())

        p = env.process(proc(env))
        env.run()
        # 'a' was scheduled first, so it is processed first and wins.
        assert p.value == ["a"]

    def test_anyof_or_operator(self, env):
        def proc(env):
            got = yield env.timeout(1, "x") | env.timeout(9, "y")
            return list(got.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["x"]

    def test_anyof_empty_triggers_immediately(self, env):
        def proc(env):
            got = yield AnyOf(env, [])
            return (env.now, got)

        p = env.process(proc(env))
        env.run()
        assert p.value == (0.0, {})

    def test_allof_waits_for_all(self, env):
        def proc(env):
            a = env.timeout(1, "a")
            b = env.timeout(4, "b")
            got = yield AllOf(env, [a, b])
            return (env.now, sorted(got.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (4.0, ["a", "b"])

    def test_allof_and_operator(self, env):
        def proc(env):
            got = yield env.timeout(2, 1) & env.timeout(3, 2)
            return (env.now, sorted(got.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (3.0, [1, 2])

    def test_allof_empty_triggers_immediately(self, env):
        def proc(env):
            got = yield AllOf(env, [])
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == {}

    def test_condition_propagates_child_failure(self, env):
        def failer(env):
            yield env.timeout(1)
            raise ValueError("child failed")

        def proc(env):
            f = env.process(failer(env))
            t = env.timeout(10)
            with pytest.raises(ValueError, match="child failed"):
                yield AllOf(env, [f, t])
            return "handled"

        p = env.process(proc(env))
        env.run()
        assert p.value == "handled"

    def test_condition_over_already_triggered_events(self, env):
        def proc(env):
            ev = env.event().succeed("pre")
            yield env.timeout(1)
            got = yield AnyOf(env, [ev, env.event()])
            return list(got.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["pre"]

    def test_cross_environment_composition_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AnyOf(env, [env.event(), other.event()])


class TestConditionOverFailedChild:
    """A child that failed before the condition was built fails it — the
    class docstring's promise, whether or not the kernel has processed
    the child yet."""

    @staticmethod
    def failed(env):
        return env.event().fail(ValueError("boom"))

    def test_allof_fails_with_the_childs_exception(self, env):
        a, b = self.failed(env), env.event().succeed(1)
        cond = env.all_of([a, b])
        assert cond.triggered and not cond.ok
        assert cond.value is a.value

        def waiter(env):
            with pytest.raises(ValueError, match="boom"):
                yield cond
            return "handled"

        proc = env.process(waiter(env))
        env.run()  # the child's failure was consumed: nothing escapes
        assert proc.value == "handled"

    def test_anyof_fails_rather_than_succeeding_empty(self, env):
        cond = env.any_of([self.failed(env)])
        assert not cond.ok and str(cond.value) == "boom"
        cond._defused = True
        env.run()

    @pytest.mark.parametrize("combine", [
        lambda a, b: a & b, lambda a, b: b & a,
        lambda a, b: a | b, lambda a, b: b | a,
    ], ids=["a&b", "b&a", "a|b", "b|a"])
    def test_operators(self, env, combine):
        cond = combine(self.failed(env), env.event().succeed(1))
        assert not cond.ok and str(cond.value) == "boom"
        cond._defused = True
        env.run()

    def test_fails_at_construction_while_a_sibling_is_pending(self, env):
        pending = env.event()
        cond = env.all_of([pending, self.failed(env)])
        assert cond.triggered and not cond.ok
        cond._defused = True
        env.run()
        pending.succeed()  # a late sibling does not re-trigger it
        env.run()
        assert not cond.ok

    def test_first_failed_child_in_child_order_wins(self, env):
        first = env.event().fail(KeyError("first"))
        second = env.event().fail(ValueError("second"))
        cond = env.all_of([env.event().succeed(), first, second])
        assert cond.value is first.value
        cond._defused = second._defused = True
        env.run()

    def test_failed_and_already_processed_child(self, env):
        a = self.failed(env)
        a._defused = True  # somebody handled it
        env.run()
        assert a.processed
        for cond in (env.all_of([a, env.event()]), env.any_of([a]), a | env.event()):
            assert cond.triggered and not cond.ok and cond.value is a.value
            cond._defused = True
        env.run()


class TestPriorities:
    def test_urgent_beats_normal_at_same_time(self, env):
        order = []
        a = env.event()
        a.add_callback(lambda e: order.append("normal"))
        b = Timeout(env, 0.0, priority=PRIORITY_URGENT)
        b.add_callback(lambda e: order.append("urgent"))
        a.succeed()
        env.run()
        assert order == ["urgent", "normal"]

    def test_fifo_within_priority(self, env):
        order = []
        for i in range(5):
            t = Timeout(env, 1.0, priority=PRIORITY_NORMAL)
            t.add_callback(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]
