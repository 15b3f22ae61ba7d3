"""repro.traffic — open-loop arrival engine for serving-style load.

Everything upstream of the scheduler: Zipf popularity
(:mod:`~repro.traffic.popularity`), bounded admission queues
(:mod:`~repro.traffic.admission`), the stability detector
(:mod:`~repro.traffic.stability`) and the open-loop executor that draws
Poisson arrivals and ties them together (:mod:`~repro.traffic.engine`).
Enabled per-run via :class:`repro.core.config.ArrivalConfig`; with
``enabled=False`` (the default) the closed-loop path is byte-identical
to before this package existed.

Only :class:`~repro.traffic.engine.OpenLoopExecutor` is re-exported: the
other three modules load when an executor builds their objects, so a
closed-loop run that imports the engine never loads them.  Import their
names from their modules.
"""

from repro.traffic.engine import OpenLoopExecutor

__all__ = ["OpenLoopExecutor"]
