"""One ``setup_s`` sample: a fresh interpreter from its first statement
through ``import repro...``, ``Cluster(config)`` and ``executor.setup()``,
at reference speed (the reference kernel is sampled just before the
clock starts and just after it stops; see ``calib.py``).

``run.py`` starts this file several times per run and reports the
median.  Usage: ``python probe.py <workload> <cluster-seed>``.

The probe pins itself to one CPU.  Left alone, the scheduler moves a
starting interpreter between this host's two CPUs for minutes on end and
then leaves it be for minutes: interleaved medians of 7 read 0.36-0.37 s
unpinned against 0.28-0.30 s pinned, and the reference kernel, whose
working set fits any cache, does not see the difference.
"""

# Nothing but the clock and the reference kernel (gc, heapq, time) may be
# imported above _T0: every module loaded here is one ``import repro``
# no longer pays for inside the timed window.
import os
import time

import calib

if hasattr(os, "sched_setaffinity"):  # Linux
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
_KERNEL = [calib.sample() for _ in range(3)]
_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from cells import CELLS, build  # noqa: E402 - needs the path above

if __name__ == "__main__":
    build(CELLS[sys.argv[1]], int(sys.argv[2]))
    elapsed = time.perf_counter() - _T0
    _KERNEL += [calib.sample() for _ in range(3)]
    _KERNEL.sort()
    kernel = (_KERNEL[2] + _KERNEL[3]) / 2  # median of the six
    print(repr(elapsed * calib.REFERENCE_S / kernel))
