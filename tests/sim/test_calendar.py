"""Calendar-queue edge cases and byte-identity pins.

The calendar queue replaced the kernel's global binary heap; everything
in this repository rests on it popping in exact ``(when, prio, seq)``
tuple order no matter how entries land in buckets, migrate from the
far-future overflow heap, or get redistributed by a self-tuning resize.
These tests drive the structure through its structural edge cases
(bucket rotation across empty bands, far-future overflow, flash-crowd
resize) and pin the kernel-level equivalence: ``step()``, ``run()``, a
pass-through ``ScheduleController`` and both ``KernelProfiler`` modes
process one and the same schedule under every stop condition.
"""

import random

import pytest

from repro.prof import KernelProfiler
from repro.sim import Environment, Event, ScheduleController, SimulationError
from repro.sim.calendar import CalendarQueue
from repro.sim.events import PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW


def make_entries(whens):
    """Deterministic entries: seq follows list order, like the kernel."""
    return [
        (float(when), PRIORITY_NORMAL, seq, object())
        for seq, when in enumerate(whens, start=1)
    ]


def drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


class TestPopOrder:
    def test_matches_sorted_tuple_order(self):
        rng = random.Random(0xC0FFEE)
        whens = []
        for _ in range(2000):
            kind = rng.random()
            if kind < 0.5:
                # short-horizon delivery on the ms grid (many exact ties)
                whens.append(rng.randrange(50) * 0.001)
            elif kind < 0.8:
                # un-quantized near event
                whens.append(rng.random() * 0.05)
            else:
                # lease-reclaim-scale timer
                whens.append(60.0 + rng.random() * 7200.0)
        entries = make_entries(whens)
        queue = CalendarQueue()
        for entry in entries:
            queue.push(entry)
        assert drain(queue) == sorted(entries)
        assert len(queue) == 0 and not queue

    def test_interleaved_push_pop_matches_heap_reference(self):
        import heapq

        rng = random.Random(7)
        queue = CalendarQueue()
        heap = []
        seq = 0
        clock = 0.0
        for _ in range(3000):
            if heap and rng.random() < 0.45:
                got = queue.pop()
                want = heapq.heappop(heap)
                assert got == want
                clock = want[0]
            else:
                seq += 1
                delay = rng.choice([0.0, 0.001, 0.001, 0.004, 2.0, 600.0])
                entry = (clock + delay, PRIORITY_NORMAL, seq, object())
                queue.push(entry)
                heapq.heappush(heap, entry)
        while heap:
            assert queue.pop() == heapq.heappop(heap)
        assert queue.pop() is None

    def test_priority_orders_within_timestamp(self):
        queue = CalendarQueue()
        low = (1.0, PRIORITY_LOW, 1, "low")
        urgent = (1.0, PRIORITY_URGENT, 2, "urgent")
        normal = (1.0, PRIORITY_NORMAL, 3, "normal")
        for entry in (low, urgent, normal):
            queue.push(entry)
        assert [e[3] for e in drain(queue)] == ["urgent", "normal", "low"]


class TestBucketRotation:
    def test_rotation_across_empty_bands(self):
        # Successive events separated by far more than a whole window:
        # every adoption has to jump empty bucket bands without scanning
        # them (the index heap holds only occupied buckets).
        whens = [i * 500.0 for i in range(40)]
        entries = make_entries(whens)
        queue = CalendarQueue()
        for entry in reversed(entries):
            queue.push(entry)
        assert drain(queue) == entries

    def test_empty_band_rotation_interleaved_with_pushes(self):
        queue = CalendarQueue()
        queue.push((0.0, 1, 1, "a"))
        assert queue.pop() == (0.0, 1, 1, "a")
        # The drain front sits at t=0; push far past several window
        # spans, then behind that again.
        queue.push((10_000.0, 1, 2, "far"))
        queue.push((9_999.0, 1, 3, "nearer"))
        assert queue.pop() == (9_999.0, 1, 3, "nearer")
        queue.push((9_999.5, 1, 4, "mid"))
        assert queue.pop() == (9_999.5, 1, 4, "mid")
        assert queue.pop() == (10_000.0, 1, 2, "far")
        assert queue.pop() is None


class TestFarFutureOverflow:
    def test_lease_scale_timers_go_far_and_come_back(self):
        queue = CalendarQueue()
        lease_band = make_entries([3600.0 + i * 0.25 for i in range(500)])
        for entry in lease_band:
            queue.push(entry)
        stats = queue.stats()
        # Lease-reclaim-scale delays sit in the overflow heap, not in
        # one-entry near buckets.
        assert stats["far"] == 500
        assert stats["near"] == 0
        # Draining adopts them back through the sliding window in order.
        assert drain(queue) == lease_band

    def test_infinite_timestamp_is_poppable_last(self):
        queue = CalendarQueue()
        inf = float("inf")
        never = (inf, PRIORITY_NORMAL, 1, "never")
        soon = (0.5, PRIORITY_NORMAL, 2, "soon")
        queue.push(never)
        queue.push(soon)
        assert queue.stats()["far"] >= 1
        assert queue.pop() == soon
        assert queue.pop() == never
        assert queue.pop() is None

    def test_near_and_far_never_invert(self):
        # Regression shape for the window-slide edge: a near bucket
        # created after the window advances must still drain before any
        # far entry at a later time.
        queue = CalendarQueue(width=0.001, span=64)
        queue.push((0.0, 1, 1, "now"))
        queue.push((0.120, 1, 2, "beyond-window"))  # far at span 64
        assert queue.pop() == (0.0, 1, 1, "now")
        queue.push((0.060, 1, 3, "near"))
        assert [e[3] for e in drain(queue)] == ["near", "beyond-window"]


class TestSelfTuningResize:
    def test_flash_crowd_burst_triggers_resize(self):
        # A microsecond-grid flash crowd under the default ms-scale
        # width: the per-bucket population explodes past the window and
        # the queue must rebuild with a narrower width — without
        # reordering a single pop.
        whens = [i * 1e-6 for i in range(9000)]
        entries = make_entries(whens)
        queue = CalendarQueue()
        for entry in entries:
            queue.push(entry)
        assert drain(queue) == entries
        assert queue.resizes > 0
        assert queue.stats()["width"] < CalendarQueue().stats()["width"]

    def test_resize_only_retunes_near_width(self):
        # The far population must not stretch the window: with a huge
        # far band and a dense near band, a rebuild keeps the horizon
        # tight so lease timers stay in the overflow heap.
        queue = CalendarQueue()
        near = make_entries([i * 1e-6 for i in range(9000)])
        far = [
            (3600.0 + i * 1.0, PRIORITY_NORMAL, 10_000 + i, object())
            for i in range(2000)
        ]
        for entry in near + far:
            queue.push(entry)
        drained = drain(queue)
        assert drained == near + far
        assert queue.resizes > 0


class TestPureInspection:
    """``head()``/``next_time()`` are pure reads (REVIEW regression).

    They used to route through ``_advance()``, which adopts buckets and
    migrates far entries — so a callback calling ``Environment.peek()``
    while a run loop was mid-batch could have the freshly adopted
    bucket's cursor overwritten by the loop's deferred write-back,
    silently dropping scheduled events.
    """

    def test_head_matches_pop_without_side_effects(self):
        rng = random.Random(0xBEEF)
        whens = [
            rng.choice([0.0, 0.001, 0.002, 0.05, 5.0, 3600.0])
            + rng.randrange(4) * 0.0005
            for _ in range(600)
        ]
        probe, control = CalendarQueue(), CalendarQueue()
        for entry in make_entries(whens):
            probe.push(entry)
            control.push(entry)
        while True:
            before = probe.stats()
            head = probe.head()
            assert probe.head() == head  # idempotent
            expected_time = head[0] if head is not None else float("inf")
            assert probe.next_time() == expected_time
            # No adoption, far migration, or rebuild happened: the
            # structure snapshot is untouched by the reads above.
            assert probe.stats() == before
            got = probe.pop()
            assert head == got == control.pop()
            if got is None:
                return


class TestEntriesAndLen:
    def test_len_and_entries_track_mid_drain(self):
        whens = [0.0, 0.0, 0.001, 5.0, 9000.0]
        entries = make_entries(whens)
        queue = CalendarQueue()
        for entry in entries:
            queue.push(entry)
        assert len(queue) == 5
        assert sorted(queue.entries()) == sorted(entries)
        queue.pop()
        queue.pop()
        assert len(queue) == 3
        assert sorted(queue.entries()) == sorted(entries)[2:]


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
