"""Generator-coroutine processes for the DES kernel.

A *process* wraps a Python generator.  Each value the generator yields must
be an :class:`~repro.sim.events.Event`; the process suspends until that event
is processed and is then resumed with the event's value (``gen.send``) or,
for failed events, has the exception thrown into it (``gen.throw``).

A :class:`Process` is itself an event: it triggers when the generator
returns (success, carrying the return value) or raises (failure, carrying
the exception).  That makes ``yield env.process(child())`` the natural way
to run sub-activities — exactly the shape nested transactions take in the
D-STM layer.

Processes can be interrupted asynchronously via :meth:`Process.interrupt`,
which throws :class:`Interrupt` into the generator at the current simulated
time.  Backoff-timer expiry racing against object arrival — the core of the
paper's Algorithm 2 — is built out of this primitive.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event, PRIORITY_URGENT

__all__ = ["Process", "Interrupt", "ProcessDied"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    :attr:`cause` carries the interrupter's reason (any object).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class ProcessDied(RuntimeError):
    """Raised when interacting with a process that already terminated."""


class Process(Event):
    """An event-driven coroutine; also an event that fires at termination."""

    __slots__ = ("_generator", "_waiting_on", "name")

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
        self._waiting_on: Optional[Event] = None
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

    # -- control -----------------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process raises :class:`ProcessDied`; interrupting
        a process is a no-op only if it is already scheduled to resume from
        the very event it is waiting on (the interrupt still wins: it is
        delivered first, and the pending resumption is discarded).
        """
        if not self.is_alive:
            raise ProcessDied(f"cannot interrupt terminated process {self.name!r}")
        exc = Interrupt(cause)
        hook = Event(self.env)
        hook._ok = True
        hook._value = exc
        hook.callbacks.append(self._deliver_interrupt)
        self.env._enqueue(0.0, PRIORITY_URGENT, hook)

    def _deliver_interrupt(self, hook: Event) -> None:
        if not self.is_alive:
            # Terminated between scheduling and delivery; drop silently —
            # the interrupter can observe termination through this event.
            return
        # Detach from whatever we were waiting on, then throw.
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        self._step(throw=hook._value)

    # -- engine ------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
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

        if not isinstance(target, Event):
            error = RuntimeError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
            try:
                self._generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:  # noqa: BLE001
                self.fail(exc)
            return
        if target.env is not self.env:
            self.fail(RuntimeError("yielded an event from a different environment"))
            return
        self._waiting_on = target
        if target.callbacks is not None:
            target.callbacks.append(self._resume)
        else:  # already processed: resumes synchronously
            target.add_callback(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name!r} {state}>"
