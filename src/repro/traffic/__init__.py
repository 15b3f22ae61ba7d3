"""repro.traffic — open-loop arrival engine for serving-style load.

Everything upstream of the scheduler: Zipf popularity
(:mod:`~repro.traffic.popularity`), bounded admission queues
(:mod:`~repro.traffic.admission`), the stability detector
(:mod:`~repro.traffic.stability`) and the open-loop executor that draws
Poisson arrivals and ties them together (:mod:`~repro.traffic.engine`).
Enabled per-run via :class:`repro.core.config.ArrivalConfig`; with
``enabled=False`` (the default) the closed-loop path is byte-identical
to before this package existed.
"""

from repro.traffic.admission import AdmissionQueue
from repro.traffic.engine import OpenLoopExecutor
from repro.traffic.popularity import PopularityModel
from repro.traffic.stability import (
    StabilityMonitor,
    max_sustainable_rate,
    stability_verdict,
)

__all__ = [
    "AdmissionQueue",
    "OpenLoopExecutor",
    "PopularityModel",
    "StabilityMonitor",
    "max_sustainable_rate",
    "stability_verdict",
]
