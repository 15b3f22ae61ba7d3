"""The reference kernel: what "one host second" means in this ledger.

This host's speed is not constant.  Twenty back-to-back runs of one cell
drift by ±10 %, and a five-minute series shows why: the machine moves
between a fast phase and a usual one about 25 % slower (sometimes 40 %),
each lasting from a fraction of a second to tens of seconds — a busy
neighbour on the physical core.  Every kind of pure-Python work slows by
the same factor (1.24–1.27 measured on four different kernels), so the
ledger times the simulator against a clock that slows with it: a fixed
piece of pure-Python work, sampled every few tens of milliseconds
*inside* each timed repetition (see ``cells.time_run``).  Host times are
reported at **reference speed**: the speed at which :func:`sample` takes
``REFERENCE_S``.

Measured effect (README, noise section): the spread of best-of-7 raw
host time between runs was 7–21 %; of the calibrated time, 2–3 %.

The kernel imports nothing from ``repro`` and must never change: a
change here rescales every host time in the ledger's history.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["REFERENCE_S", "sample"]

#: what :func:`sample` takes at reference speed — this host's usual phase
REFERENCE_S = 0.00125

_ROUNDS = 1500


class _Slot:
    __slots__ = ("value", "callbacks")

    def __init__(self, value: int) -> None:
        self.value = value
        self.callbacks: list = []


def _echo():
    value = 0
    while True:
        value = (yield value) or value + 1


def _kernel() -> None:
    """The mix imitates the simulator's: string-keyed dict traffic, small
    tuple/dict/slotted-object allocation, list growth and slicing, a heap
    and generator resumes."""
    table: dict = {}
    queue: list = []
    heap: list = []
    echo = _echo()
    next(echo)
    for i in range(_ROUNDS):
        key = "oid%d" % (i & 127)
        table[key] = (i, table.get(key))
        slot = _Slot(i)
        slot.callbacks.append(key)
        queue.append({"src": i, "dst": key, "slot": slot})
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        echo.send(slot.value)
        if len(queue) > 64:
            queue = queue[32:]
            heapq.heappop(heap)


def sample() -> float:
    """Host seconds the reference kernel takes right now (about 1.25 ms).

    The kernel runs twice and the second pass is timed: the first pulls
    its code and data back into the caches the simulator has just used.
    The collector is held off meanwhile: a collection that the kernel's
    allocations happen to trigger would traverse the simulator's heap.
    Both keep the sample a reading of the host's speed, not of the
    simulator's footprint.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
