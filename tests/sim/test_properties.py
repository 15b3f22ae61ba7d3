"""Property-based tests for the DES kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Environment,
    Timeout,
)

#: few distinct delays, so generated schedules are full of exact ties
_DELAYS = (0.0, 0.0, 0.001, 0.001, 0.25, 3.0, float("inf"))
_PRIORITIES = (PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW)
#: a push: (delay, priority, pushes made from inside its callback)
_pushes = st.recursive(
    st.tuples(st.sampled_from(_DELAYS), st.sampled_from(_PRIORITIES), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(_DELAYS),
        st.sampled_from(_PRIORITIES),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=12,
)


def _play(program, drive):
    """Schedule ``program``, let ``drive(env)`` execute it; returns one
    ``(when, prio, seq, seq high-water mark at the pop)`` per processed
    entry, in processing order."""
    env = Environment()
    processed = []

    def push(node):
        delay, prio, children = node
        event = Timeout(env, delay, priority=prio)
        seq = env._seq

        def fire(event):
            processed.append((env.now, prio, seq, env._seq))
            for child in children:
                push(child)

        event.add_callback(fire)

    for node in program:
        push(node)
    drive(env)
    return processed


def _step_dry(env):
    while env.pending_entries():
        env.step()


class TestEventOrderingProperties:
    @given(
        st.lists(_pushes, min_size=1, max_size=8),
        st.lists(st.sampled_from((0.0, 0.001, 0.002, 0.25, 1.0, 3.0, 10.0)), max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_pops_ascend_in_tuple_order_and_match_the_step_reference(
        self, program, horizons
    ):
        def run_in_slices(env):
            for horizon in sorted(horizons):
                env.run(until=horizon)
            env.run()

        ran = _play(program, run_in_slices)
        assert ran == _play(program, _step_dry)
        for (when, prio, seq, mark), after in zip(ran, ran[1:]):
            if after[2] <= mark:
                # both were pending together: strict tuple order
                assert (when, prio, seq) < after[:3]
            else:
                # pushed by the callback just run: may outrank it on
                # priority (a same-time urgent push), never on time
                assert when <= after[0]

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_timeouts_fire_in_nondecreasing_time_order(self, delays):
        env = Environment()
        fired = []
        for d in delays:
            env.timeout(d).add_callback(lambda e, d=d: fired.append((env.now, d)))
        env.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)
        # Every event fired exactly at its delay.
        assert all(abs(t - d) < 1e-12 for t, d in fired)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_equal_times_fire_in_schedule_order(self, delays):
        env = Environment()
        order = []
        for i, d in enumerate(delays):
            env.timeout(round(d, 1)).add_callback(lambda e, i=i: order.append(i))
        env.run()
        # For equal rounded delays, lower schedule index fires first.
        by_delay = {}
        for i, d in enumerate(delays):
            by_delay.setdefault(round(d, 1), []).append(i)
        position = {i: pos for pos, i in enumerate(order)}
        for group in by_delay.values():
            positions = [position[i] for i in group]
            assert positions == sorted(positions)

    @given(st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_process_fanout_determinism(self, n_procs, seed):
        def run_once():
            from repro.sim import RngRegistry

            env = Environment()
            rng = RngRegistry(seed=seed).stream("p")
            log = []

            def worker(env, wid):
                for _ in range(5):
                    yield env.timeout(float(rng.uniform(0.01, 1.0)))
                    log.append((env.now, wid))

            for wid in range(n_procs):
                env.process(worker(env, wid))
            env.run()
            return log

        assert run_once() == run_once()


class TestConditionProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=5.0,
                              allow_nan=False), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_allof_completes_at_max_anyof_at_min(self, delays):
        env = Environment()
        results = {}

        def waiter(env, kind):
            events = [env.timeout(d) for d in delays]
            if kind == "all":
                yield env.all_of(events)
            else:
                yield env.any_of(events)
            results[kind] = env.now

        env.process(waiter(env, "all"))
        env.process(waiter(env, "any"))
        env.run()
        assert results["all"] == max(delays)
        assert results["any"] == min(delays)
