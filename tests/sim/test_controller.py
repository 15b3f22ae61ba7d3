"""ScheduleController semantics: pass-through identity, tie picks,
deferrals, and the invalid-choice contract (`sim/core.py`)."""

import pytest

from repro.sim import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Environment,
    ScheduleController,
    SimulationError,
    Timeout,
)


def _three_tied_processes(env, order):
    """Three processes, all resumed by timeouts firing at t=1.0."""

    def worker(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(worker(tag), name=f"w-{tag}")


class _Recorder(ScheduleController):
    """Default choices, recording each ready set's width."""

    def __init__(self):
        self.widths = []

    def select(self, env, when, priority, ready, next_time):
        self.widths.append(len(ready))
        return 0


def test_no_controller_attribute_defaults_to_none():
    assert Environment().controller is None


def test_default_controller_reproduces_the_uncontrolled_schedule():
    baseline = []
    env = Environment()
    _three_tied_processes(env, baseline)
    env.run()

    controlled = []
    env2 = Environment()
    _three_tied_processes(env2, controlled)
    recorder = _Recorder()
    env2.controller = recorder
    env2.run()

    assert controlled == baseline == ["a", "b", "c"]
    assert env2.now == env.now
    assert env2.events_processed == env.events_processed
    # The three tied timeouts surfaced as one width-3 ready set.
    assert max(recorder.widths) == 3


def test_tie_pick_overrides_the_seq_order():
    class PickLastTimeout(ScheduleController):
        # Default order for the t=0 bootstraps; reverse the t=1 timeouts
        # (reversing both stages would cancel out).
        def select(self, env, when, priority, ready, next_time):
            return len(ready) - 1 if when > 0 else 0

    order = []
    env = Environment()
    _three_tied_processes(env, order)
    env.controller = PickLastTimeout()
    env.run()
    assert order == ["c", "b", "a"]


def test_defer_repushes_at_when_plus_delta():
    class DeferFirstOnce(ScheduleController):
        def __init__(self):
            self.done = False

        def select(self, env, when, priority, ready, next_time):
            if not self.done and len(ready) == 3:
                self.done = True
                return ("defer", 0, 0.5)
            return 0

    order = []
    env = Environment()
    _three_tied_processes(env, order)
    env.controller = DeferFirstOnce()
    env.run()
    assert order == ["b", "c", "a"]
    assert env.now == pytest.approx(1.5)


def _run_deferring_by(delta):
    class Bad(ScheduleController):
        def select(self, env, when, priority, ready, next_time):
            return ("defer", 0, delta)

    def once(env):
        yield env.timeout(1.0)

    env = Environment()
    env.process(once(env))
    env.controller = Bad()
    env.run()


def test_invalid_choice_is_a_simulation_error():
    with pytest.raises(SimulationError, match="invalid choice"):
        _run_deferring_by(-1.0)


@pytest.mark.parametrize("delta", [0.0, float("nan")])
def test_zero_and_nan_deferrals_are_invalid_choices(delta):
    # A zero deferral would loop forever; a NaN one would enter the
    # schedule at a time that compares false with everything.
    with pytest.raises(SimulationError, match="invalid choice"):
        _run_deferring_by(delta)


def test_controller_and_ready_set_see_next_time():
    seen = []

    class Spy(ScheduleController):
        def select(self, env, when, priority, ready, next_time):
            seen.append((when, next_time))
            return 0

    def late(env):
        yield env.timeout(2.0)

    env = Environment()
    env.process(late(env), name="late")
    env.controller = Spy()
    env.run()
    # The final pop has nothing behind it.
    assert seen[-1][1] == float("inf")


class _SeqSpy(ScheduleController):
    """Plays back ``choices`` (then 0s), recording each call as
    ``(when, priority, ready seqs, next_time)``."""

    def __init__(self, choices=()):
        self.choices = list(choices)
        self.seen = []

    def select(self, env, when, priority, ready, next_time):
        self.seen.append((when, priority, [entry[2] for entry in ready], next_time))
        return self.choices.pop(0) if self.choices else 0


def test_ready_set_is_every_tie_in_seq_order_and_nothing_else():
    # The t=1 normal ties are pushed with another time and a same-time
    # urgent entry between them: the ready set is all three, in seq
    # order, never the urgent one; next_time looks past the detached set.
    env = Environment()
    env.timeout(1.0)  # seq 1
    env.timeout(2.0)  # seq 2
    env.timeout(1.0)  # seq 3
    Timeout(env, 1.0, priority=PRIORITY_URGENT)  # seq 4
    env.timeout(1.0)  # seq 5
    env.controller = spy = _SeqSpy()
    env.run()
    assert spy.seen == [
        (1.0, PRIORITY_URGENT, [4], 1.0),
        (1.0, PRIORITY_NORMAL, [1, 3, 5], 2.0),
        (1.0, PRIORITY_NORMAL, [3, 5], 2.0),
        (1.0, PRIORITY_NORMAL, [5], 2.0),
        (2.0, PRIORITY_NORMAL, [2], float("inf")),
    ]


def test_unchosen_entries_keep_their_seq_and_a_deferred_one_gets_a_fresh_one():
    env = Environment()
    for _ in range(3):
        env.timeout(1.0)  # seqs 1, 2, 3
    env.controller = spy = _SeqSpy([2, ("defer", 0, 0.5)])
    env.run()
    assert spy.seen == [
        (1.0, PRIORITY_NORMAL, [1, 2, 3], float("inf")),  # picks seq 3
        (1.0, PRIORITY_NORMAL, [1, 2], float("inf")),  # defers seq 1
        (1.0, PRIORITY_NORMAL, [2], 1.5),
        (1.5, PRIORITY_NORMAL, [4], float("inf")),
    ]
    assert env.events_processed == 3
