"""The event loop: :class:`Environment`.

The environment owns the simulated clock and the pending schedule: a
plain ``list`` kept as a binary heap by :mod:`heapq` over
``(time, priority, sequence, fn, arg)`` tuples (:data:`Entry`).  An
entry is one of two kinds:

* an **event** (``fn is None``): ``arg`` is an :class:`Event`, which the
  loop fires — its value materialised, its callbacks run, an undefused
  failure raised;
* a **call** (``fn`` set): the loop runs ``fn(arg)``.  There is no Event
  object and it cannot fail; an exception raised by ``fn`` propagates
  out of :meth:`Environment.run`.

**The rule: a timer that nobody waits on is a call**
(:meth:`Environment.call_later`) — a message's link delay, an inbox
service period, a batcher flush, a retry window; **so is a process's
sleep**: a process waits out a plain delay by yielding the ``float``
itself, and resumes inside the one call entry its step pushes, keyed
exactly as a :class:`~repro.sim.events.Timeout` built there would be;
**a wake-up with one consumer that cannot fail is a call too**, through
a :class:`~repro.sim.events.Signal` — an RPC reply, a fan-out's join —
which a process yields like an Event and resumes inside; **only what
is raced or shared is an Event** (the hand-off race's ``Timeout``, a
drain over many processes).  The monotonically increasing sequence
number is unique, so a comparison never reaches ``fn`` and pop order
is ascending tuple order by construction — which makes every
simulation in this repository deterministic, and is the invariant
every digest rests on
(``tests/rpc/test_equivalence.py``).  No cell holds more than a few
hundred pending entries, so nothing cleverer pays (EXPERIMENTS.md, "The
event core is ``heapq``").

There is exactly one run loop, :meth:`Environment.run`.  An installed
:class:`ScheduleController` (the systematic explorer) swaps its pop for
:meth:`Environment._select`; an installed
:class:`~repro.prof.kernel.KernelProfiler` swaps its callback dispatch
for ``KernelProfiler.dispatch`` (and its call entries for
``KernelProfiler.call``).  The schedule the explorer checks, the
schedule the profiler attributes and the schedule the benchmarks time
are therefore the same code.  :meth:`Environment.step` is the single-pop
reference the tests compare that loop against.  The one shortcut the
loop allows is a reply's wake-up run inside the entry that delivers it,
when that wake-up is exactly the next pop and no tool is installed
(:meth:`Signal.deliver <repro.sim.events.Signal.deliver>`): same
order, same ``seq``, same :attr:`~Environment.events_processed`.

Typical use::

    env = Environment()

    def worker(env, duration):
        yield duration  # a sleep
        return duration * 2

    proc = env.process(worker(env, 5.0))
    env.run()
    assert env.now == 5.0 and proc.value == 10.0
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.events import (
    PRIORITY_NORMAL,
    AllOf,
    AnyOf,
    Event,
    Timeout,
    _PENDING,
)
from repro.sim.process import Process

__all__ = ["Environment", "ScheduleController", "SimulationError", "EmptySchedule"]

#: one pending entry: ``(when, priority, seq, None, event)`` for an event,
#: ``(when, priority, seq, fn, arg)`` for a call
Entry = tuple[float, int, int, Optional[Callable[[Any], Any]], Any]


class SimulationError(RuntimeError):
    """Base class for kernel-level errors."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class ScheduleController:
    """Hook over the kernel's schedule-pop choice points.

    When installed (``env.controller = controller``) the run loop pops
    through :meth:`Environment._select`, which at every pop hands the
    controller the *ready set* — every pending entry tied at the minimal
    ``(time, priority)`` — and lets it either

    * **pick** which tied entry to process (``return i``), overriding the
      sequence-number tie-break, or
    * **defer** one of them by a positive delay
      (``return ("defer", i, delta)``), re-enqueueing it — the same
      ``fn`` and ``arg`` — at ``when + delta`` with a fresh sequence
      number — the bounded
      message-delay jitter the systematic explorer
      (:mod:`repro.check.explore`) uses to reorder in-flight deliveries.

    The default implementation always returns ``0`` (the seq-minimal
    entry), which reproduces the uncontrolled schedule exactly; with no
    controller installed the pop is a ``heappop`` behind one
    ``is None`` guard, keeping default runs byte-identical.
    """

    def select(
        self,
        env: "Environment",
        when: float,
        priority: int,
        ready: "list[Entry]",
        next_time: float,
    ) -> "int | tuple[str, int, float]":
        """Choose among ``ready`` (seq-ordered ties at ``(when, priority)``).

        ``next_time`` is the time of the earliest pending entry *behind*
        the ready set (``inf`` when none), so deferral targets can be
        computed without touching the schedule.
        """
        return 0


class Environment:
    """A deterministic discrete-event simulation environment.

    :attr:`now` is the clock.  Code that runs per event or per message
    (``repro.sim.events``, ``Network.send``, the node inbox server) reads
    the ``_now`` slot behind the property to save its Python frame; only
    this class writes it.
    """

    __slots__ = (
        "_now", "_queue", "_qpush", "_seq", "_inline",
        "events_processed", "profiler", "controller",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: the schedule: a heapq-ordered list of :data:`Entry` tuples
        self._queue: list[Entry] = []
        # The push, pre-bound for the inlined scheduling sites (Timeout
        # construction, Event.succeed/fail, process bootstrap): a C call
        # with no Python frame on every schedule insert.
        self._qpush = partial(heappush, self._queue)
        self._seq = 0
        #: True only while :meth:`run` pops with no controller, no
        #: profiler and no ``max_events``: then a reply delivered as the
        #: last act of a call entry may run its waiter in that entry
        #: (:meth:`Signal.deliver <repro.sim.events.Signal.deliver>`)
        self._inline = False
        #: number of events processed so far (useful for progress/limits)
        self.events_processed = 0
        #: opt-in kernel profiler (:class:`repro.prof.KernelProfiler`);
        #: when set, run() dispatches callbacks through its ``dispatch``
        self.profiler: Optional[Any] = None
        #: opt-in schedule controller (:class:`ScheduleController`);
        #: when set, run() pops through :meth:`_select`
        self.controller: Optional[ScheduleController] = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event factories and calls ---------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now — for a
        delay that is raced (``waiter | expiry``); a process that only
        waits it out yields the ``float`` instead."""
        return Timeout(self, delay, value)

    def call_later(
        self, delay: float, fn: Callable[[Any], Any], arg: Any = None
    ) -> None:
        """Run ``fn(arg)`` ``delay`` time units from now, as a call entry.

        For a timer nobody waits on: it costs one schedule entry and no
        :class:`Event`.  Ties order exactly as a :class:`Timeout` pushed
        at the same point would (normal priority, the next ``seq``).  The
        per-message sites (``Network.send``, the node inbox server)
        inline the push, as ``Timeout.__init__`` does its own.
        """
        if not delay >= 0:  # one comparison; false for NaN too
            raise ValueError(f"delay must be >= 0 and not NaN, got {delay!r}")
        self._seq += 1
        self._qpush((self._now + delay, PRIORITY_NORMAL, self._seq, fn, arg))

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling (kernel-internal) ------------------------------------------

    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        # The checked scheduling path.  Event.succeed/fail, Timeout
        # construction and the process bootstrap inline its last two
        # lines (see the measurement note in Event.succeed) and fall back
        # to it for the scheduled-twice diagnostic.
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        self._qpush((self._now + delay, priority, self._seq, None, event))

    def pending_entries(self) -> list[Entry]:
        """Snapshot of the scheduled :data:`Entry` tuples (deterministic
        order, not time-sorted).  Read-only: used by the systematic
        explorer's independence checks and by tests."""
        return list(self._queue)

    # -- execution ----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process exactly one entry — the single-pop reference for
        :meth:`run` (``tests/sim/test_core.py::TestKernelEquivalence``).

        Raises :class:`EmptySchedule` when the schedule is empty, and
        re-raises the exception of any *failed* event that no process
        consumed (an uncaught failure anywhere in the simulation should
        crash the run loudly, never vanish).
        """
        if not self._queue:
            raise EmptySchedule("no events scheduled")
        when, _prio, _seq, fn, arg = heappop(self._queue)
        self._now = when
        self.events_processed += 1
        if fn is not None:
            fn(arg)
            return
        event = arg
        if event._value is _PENDING:
            # Auto-firing event (Timeout): materialise its value now.
            event._ok = True
            event._value = event._fire_value
        callbacks = event.callbacks
        event.callbacks = None  # late add_callback() now runs synchronously
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def _select(self, controller: ScheduleController) -> Optional[Entry]:
        """Controlled pop: let ``controller`` choose among the entries tied
        with the head.  Returns the entry to process, or ``None`` when the
        controller deferred one instead (nothing is processed this turn).

        The ready set is every entry tied with the head on ``(time,
        priority)``, popped off the heap — so it arrives in seq order and
        is detached from the schedule while the controller deliberates:
        ``next_time`` sees only what lies behind it.  Unchosen entries go
        back with their own seq, a deferred one — event or call, its
        ``fn`` and ``arg`` unchanged — with a fresh seq.
        """
        queue = self._queue
        ready = [heappop(queue)]
        when, prio = ready[0][0], ready[0][1]
        while queue and queue[0][0] == when and queue[0][1] == prio:
            ready.append(heappop(queue))

        choice = controller.select(self, when, prio, ready, self.peek())
        chosen: Optional[Entry] = None
        if isinstance(choice, tuple):
            kind, index, delta = choice
            if kind != "defer" or not delta > 0.0:
                raise SimulationError(
                    f"controller returned invalid choice {choice!r}"
                )
            _when, _prio, _seq, fn, arg = ready.pop(index)
            self._seq += 1
            heappush(queue, (when + delta, prio, self._seq, fn, arg))
        else:
            chosen = ready.pop(choice)
        for entry in ready:
            heappush(queue, entry)
        return chosen

    def run(
        self,
        until: Optional[float | Event] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock would pass it), an
        :class:`Event` (run until it is processed, returning its value), or
        ``None`` (run the schedule dry).  ``max_events`` bounds the number of
        processed events as a runaway guard.

        This is the kernel's only loop.  Per entry it checks the stop
        conditions against the schedule head and pops it (``heappop``, or
        :meth:`_select` under a :attr:`controller`).  A call entry runs
        ``fn(arg)`` (through ``profiler.call`` under a :attr:`profiler`);
        an event entry fires its event, dispatches its callbacks (through
        ``profiler.dispatch``) and raises an undefused failure.  Both
        count in :attr:`events_processed`.  A callback that schedules a
        same-time *urgent* event therefore sees it run next: the head is
        re-read from the queue on every turn.

        With no controller, no profiler and no ``max_events`` the loop
        sets :attr:`_inline` for its duration (cleared in a ``finally``,
        so :meth:`step` and a run that raised never see it): a reply
        signal delivered as the last act of a call entry then runs its
        waiter inside that entry when its own entry would be the next
        pop (:meth:`Signal.deliver <repro.sim.events.Signal.deliver>`),
        and still counts in :attr:`events_processed`.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self._now:  # also refuses NaN
                raise ValueError(
                    f"until={stop_time} is NaN or in the past (now={self._now})"
                )
        limit = (
            None if max_events is None else self.events_processed + max_events
        )

        queue = self._queue
        controller = self.controller
        profiler = self.profiler
        # The guard of Signal.deliver: with no tool watching each pop and
        # no entry limit, the next pop can be run in the entry before it.
        self._inline = controller is None and profiler is None and limit is None
        try:
            while queue:
                if stop_event is not None and stop_event._processed:
                    break
                when = queue[0][0]
                if when > stop_time:
                    break
                if limit is not None and self.events_processed >= limit:
                    raise SimulationError(f"exceeded max_events={max_events}")
                if controller is None:
                    _when, _prio, _seq, fn, arg = heappop(queue)
                else:
                    entry = self._select(controller)
                    if entry is None:
                        continue
                    _when, _prio, _seq, fn, arg = entry
                self._now = when
                self.events_processed += 1

                if fn is not None:
                    if profiler is None:
                        fn(arg)
                    else:
                        profiler.call(fn, arg)
                    continue
                event = arg
                if event._value is _PENDING:
                    # Auto-firing event (Timeout): materialise its value now.
                    event._ok = True
                    event._value = event._fire_value
                callbacks = event.callbacks
                event.callbacks = None  # late add_callback() now runs synchronously
                event._processed = True
                if profiler is None:
                    for callback in callbacks:
                        callback(event)
                else:
                    profiler.dispatch(event, callbacks)
                if not event._ok and not event._defused:
                    raise event._value
        finally:
            self._inline = False

        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the schedule before the event fired"
                )
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if self._now < stop_time < float("inf"):
            # Stopped at, or ran dry before, the horizon: advance to it for
            # callers that compute rates over the requested window.
            self._now = stop_time
        return None
