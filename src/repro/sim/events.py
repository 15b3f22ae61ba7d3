"""One-shot events for the DES kernel.

Events are the only synchronisation primitive in the simulator.  An event is
*triggered* exactly once, either successfully (:meth:`Event.succeed`) carrying
a value, or unsuccessfully (:meth:`Event.fail`) carrying an exception.  When
the event loop processes a triggered event it invokes the event's callbacks;
processes waiting on the event are resumed (or have the exception thrown into
them) through that mechanism.

Priorities order events scheduled for the same simulated time:
``PRIORITY_URGENT`` < ``PRIORITY_NORMAL`` < ``PRIORITY_LOW`` (smaller runs
first).  Ties within a priority class are broken by scheduling sequence
number, which makes the simulation fully deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Condition",
    "AnyOf",
    "AllOf",
    "EventAlreadyTriggered",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
]

PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Sentinel for "not yet triggered".
_PENDING = object()


class EventAlreadyTriggered(RuntimeError):
    """Raised when :meth:`Event.succeed` / :meth:`Event.fail` is called twice."""


class Event:
    """A one-shot occurrence at a point in simulated time.

    Lifecycle: *pending* -> *triggered* (value or exception set, sitting in
    the event queue) -> *processed* (callbacks ran).  Callbacks appended after
    processing would be lost, so :meth:`add_callback` on a processed event
    invokes the callback immediately via an urgent zero-delay event; this
    keeps "wait on an already-completed event" race-free.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_scheduled", "_defused")

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False
        self._scheduled = False
        # True unless a failure is in flight that nobody has consumed yet;
        # initialised here so the event loop can read the slot directly.
        self._defused = True

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event was (or will be) a success.

        Only meaningful once :attr:`triggered` is true.
        """
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or the failure exception)."""
        if self._value is _PENDING:
            raise AttributeError("event has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        env = self.env
        if self._scheduled:
            # A pending Timeout: _enqueue raises "scheduled twice",
            # before this call has touched the event's outcome.
            env._enqueue(0.0, PRIORITY_NORMAL, self)
        self._ok = True
        self._value = value
        # Environment._enqueue's push, inlined here, in fail(), in
        # Timeout.__init__ and in the Process bootstrap: calling it (and
        # Event.__init__) instead measured +3.8 % host_us_per_commit on
        # lowcont_bank_80, slower on 5 of 6 pairs (EXPERIMENTS.md, "One
        # kernel run loop").
        self._scheduled = True
        env._seq += 1
        env._qpush((env._now, PRIORITY_NORMAL, env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        env = self.env
        if self._scheduled:
            env._enqueue(0.0, PRIORITY_NORMAL, self)
        self._ok = False
        self._value = exception
        self._defused = False
        self._scheduled = True  # inlined _enqueue push; see succeed()
        env._seq += 1
        env._qpush((env._now, PRIORITY_NORMAL, env._seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    # -- waiting -----------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event is processed.

        Safe to call on an already-processed event: the callback is invoked
        synchronously in that case.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    # -- composition --------------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"  # check: allow[det-id-order] -- debug repr only; never ordered or persisted


class Timeout(Event):
    """An event that triggers automatically ``delay`` time units from now.

    The value is materialised by the event loop at fire time (see
    ``Environment.step``), so a pending timeout does not read as triggered —
    that matters when composing it into :class:`AnyOf` races.
    """

    __slots__ = ("delay", "_fire_value")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        delay: float,
        value: Any = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        if not delay >= 0:  # one comparison; false for NaN too
            raise ValueError(f"delay must be >= 0 and not NaN, got {delay!r}")
        # Event.__init__ and Environment._enqueue's push inlined (the
        # measurement is in Event.succeed); field-for-field identical to
        # them.  A fresh Timeout cannot already be scheduled, so the
        # scheduled-twice guard is statically satisfied.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = True
        self.delay = delay
        self._fire_value = value
        self._scheduled = True
        env._seq += 1
        env._qpush((env._now + delay, priority, env._seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Condition(Event):
    """Composite event over a fixed set of child events.

    Triggers as soon as ``evaluate(events, n_done)`` returns true, succeeding
    with an ordered dict of the child events that had triggered *successfully*
    by that moment (insertion order = child order).  If any child fails before
    the condition is met, the condition fails with that exception.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        evaluate: Callable[[list["Event"], int], bool],
        events: Iterable[Event],
    ) -> None:
        Event.__init__(self, env)
        self._events = children = list(events)
        self._evaluate = evaluate
        # One pass over the children (a join is built per RPC fan-out):
        # refuse a foreign one, count the triggered and the processed,
        # find the first that already failed.
        triggered = processed = 0
        failed: Optional[Event] = None
        for ev in children:
            if ev.env is not env:
                raise ValueError("cannot mix events from different environments")
            if ev._value is not _PENDING:
                triggered += 1
                if ev.callbacks is None:
                    processed += 1
                if failed is None and not ev._ok:
                    failed = ev
        # What _check counts: a triggered child counts once it is processed.
        self._count = processed
        if failed is not None:
            failed._defused = True  # as _check does for a later failure
            self.fail(failed._value)
        elif evaluate(children, triggered):
            self.succeed(self._collect())
        else:
            check = self._check
            for ev in children:
                if ev.callbacks is not None:
                    ev.callbacks.append(check)

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self._events
            if ev._value is not _PENDING and ev._ok
        }

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggered when at least one child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(env, lambda events, count: count > 0 or not events, events)


class AllOf(Condition):
    """Triggered when every child event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:  # noqa: F821
        super().__init__(env, lambda events, count: count >= len(events), events)
