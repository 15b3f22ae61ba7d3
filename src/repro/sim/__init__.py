"""Deterministic discrete-event simulation (DES) kernel.

This package provides the execution substrate for the whole reproduction:
a single-threaded, deterministic event loop (:class:`~repro.sim.core.Environment`),
generator-coroutine processes (:class:`~repro.sim.process.Process`), one-shot
events with success/failure semantics (:mod:`repro.sim.events`), reproducible
named random streams (:mod:`repro.sim.rng`) and measurement helpers
(:mod:`repro.sim.monitor`, :mod:`repro.sim.trace`).

The design follows the classic event-list DES architecture (as popularised by
SimPy) but is implemented from scratch so that the scheduler's behaviour —
most importantly tie-breaking and therefore reproducibility — is fully under
our control: two runs with the same seeds produce byte-identical traces.
"""

from repro.sim.core import Environment, ScheduleController, SimulationError
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    EventAlreadyTriggered,
    Timeout,
    PRIORITY_URGENT,
    PRIORITY_NORMAL,
    PRIORITY_LOW,
)
from repro.sim.process import Interrupt, Process, ProcessDied
from repro.sim.rng import RngRegistry
from repro.sim.monitor import Counter, Tally, TimeWeighted
from repro.sim.trace import TraceRecord, TraceSink, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "ProcessDied",
    "RngRegistry",
    "ScheduleController",
    "SimulationError",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "TraceRecord",
    "TraceSink",
    "Tracer",
]
