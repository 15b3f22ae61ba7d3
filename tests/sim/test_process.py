"""Unit tests for generator-coroutine processes."""

import pytest

from repro.sim import Environment


class TestBasicExecution:
    def test_process_runs_to_completion(self, env):
        def body(env):
            yield env.timeout(1)
            yield env.timeout(2)
            return "done"

        p = env.process(body(env))
        env.run()
        assert p.value == "done"
        assert env.now == 3.0

    def test_process_is_alive_until_return(self, env):
        def body(env):
            yield env.timeout(5)

        p = env.process(body(env))
        assert p.is_alive
        env.run(until=1)
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_default_return_value_is_none(self, env):
        def body(env):
            yield env.timeout(1)

        p = env.process(body(env))
        env.run()
        assert p.value is None

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_name_defaults_to_generator_name(self, env):
        def my_worker(env):
            yield env.timeout(1)

        p = env.process(my_worker(env))
        assert p.name == "my_worker"
        q = env.process(my_worker(env), name="custom")
        assert q.name == "custom"
        env.run()

    def test_yielding_non_event_fails_process(self, env):
        def body(env):
            yield "42"

        # An orphan failure crashes the run loudly...
        env.process(body(env))
        with pytest.raises(RuntimeError, match="must\\s+yield Event"):
            env.run(until=1)

        # ...while a waiter can observe and absorb it.
        def waiter(env):
            with pytest.raises(RuntimeError, match="must\\s+yield Event"):
                yield env.process(body(env))
            return True

        w = env.process(waiter(env))
        env.run()
        assert w.value is True

    def test_yielding_foreign_event_fails_process(self, env):
        other = Environment()

        def body(env):
            yield other.event()

        def waiter(env):
            with pytest.raises(RuntimeError, match="different environment"):
                yield env.process(body(env))
            return True

        w = env.process(waiter(env))
        env.run()
        assert w.value is True


class TestProcessAsEvent:
    def test_waiting_on_child_process(self, env):
        def child(env):
            yield env.timeout(2)
            return 99

        def parent(env):
            v = yield env.process(child(env))
            return v + 1

        p = env.process(parent(env))
        env.run()
        assert p.value == 100

    def test_child_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("lost")

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError:
                return "caught"

        p = env.process(parent(env))
        env.run()
        assert p.value == "caught"

    def test_uncaught_process_failure_crashes_run(self, env):
        def body(env):
            yield env.timeout(1)
            raise RuntimeError("unhandled")

        env.process(body(env))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_waiting_on_already_finished_process(self, env):
        def child(env):
            yield env.timeout(1)
            return "early"

        def parent(env, c):
            yield env.timeout(5)
            v = yield c
            return v

        c = env.process(child(env))
        p = env.process(parent(env, c))
        env.run()
        assert p.value == "early"
        assert env.now == 5.0
