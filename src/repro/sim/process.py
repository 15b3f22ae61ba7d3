"""Generator-coroutine processes for the DES kernel.

A *process* wraps a Python generator, which yields what it waits on:

* a **delay** — a non-negative ``float`` or ``int`` (not ``bool``), the
  sleep: the process pushes one call entry, ``(now + d,
  PRIORITY_NORMAL, next seq, its step, None)`` — the key a
  :class:`~repro.sim.events.Timeout` built at the same point would push
  — and resumes inside it with ``None``.  A NaN or negative delay is
  thrown back into the generator as ``ValueError``, with ``Timeout``'s
  message;
* a :class:`~repro.sim.events.Signal` (an RPC reply): the process
  becomes its one consumer and resumes inside the signal's call entry;
* an :class:`~repro.sim.events.Event`: the process suspends until that
  event is processed and is then resumed with the event's value
  (``gen.send``) or, for failed events, has the exception thrown into it
  (``gen.throw``).  Only what is raced or shared needs one.

A :class:`Process` is itself an event: it triggers when the generator
returns (success, carrying the return value) or raises (failure, carrying
the exception).  That makes ``yield env.process(child())`` the natural way
to run sub-activities — exactly the shape nested transactions take in the
D-STM layer.

Races are conditions, not interrupts: Algorithm 2's backoff expiry racing
the object hand-off is one ``yield waiter | expiry`` (an
:class:`~repro.sim.events.AnyOf`) in ``TMProxy._await_handoff``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Event,
    Signal,
    _fired,
)

__all__ = ["Process"]


class Process(Event):
    """An event-driven coroutine; also an event that fires at termination."""

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current time, urgently so that a
        # just-created process starts before same-time normal events.
        # Environment._enqueue's push inlined (measurement in
        # Event.succeed); the fresh event cannot be scheduled twice.
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume)
        bootstrap._scheduled = True
        env._seq += 1
        env._qpush((env._now, PRIORITY_URGENT, env._seq, None, bootstrap))

    # -- state -------------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return not self.triggered

    # -- engine ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(send=event._value)
        else:
            event._defused = True
            self._step(throw=event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self._generator.throw(throw)
            else:
                target = self._generator.send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self.fail(exc)
            return

        cls = target.__class__
        if cls is Signal:
            # One consumer, resumed inside the signal's call entry.
            if target.env is self.env:
                consumer = target._consumer
                if consumer is None:
                    target._consumer = self._step
                    return
                if consumer is _fired:
                    self._step(target._value)  # already fired: resumes now
                    return
            error: BaseException = RuntimeError(
                f"process {self.name!r} yielded {target!r}, which has a "
                "consumer already or belongs to another environment"
            )
        elif cls is float or isinstance(target, float):
            # A sleep: Timeout.__init__'s push, with this step as the call.
            if target >= 0:  # one comparison; false for NaN too
                env = self.env
                env._seq += 1
                env._qpush(
                    (env._now + target, PRIORITY_NORMAL, env._seq, self._step, None)
                )
                return
            error = ValueError(f"delay must be >= 0 and not NaN, got {target!r}")
        elif isinstance(target, Event):
            if target.env is not self.env:
                error = RuntimeError("yielded an event from a different environment")
            else:
                if target.callbacks is not None:
                    target.callbacks.append(self._resume)
                else:  # already processed: resumes synchronously
                    target.add_callback(self._resume)
                return
        elif cls is int:
            # An int delay sleeps as the equal float would: call_later
            # pushes the same key.  A bool (an int subclass) is refused.
            try:
                self.env.call_later(target, self._step)
                return
            except ValueError as exc:  # negative: thrown back as a float's is
                error = exc
        else:
            error = RuntimeError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event or Signal instances, or a float or int delay"
            )
        # Thrown in where it was yielded: the generator may catch it and
        # wait on something else.
        self._step(throw=error)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name!r} {state}>"
