"""repro.traffic — open-loop arrival engine for serving-style load.

Everything upstream of the scheduler: arrival processes
(:mod:`~repro.traffic.arrivals`), popularity models
(:mod:`~repro.traffic.popularity`), scenario scripts
(:mod:`~repro.traffic.scenarios`), bounded admission queues
(:mod:`~repro.traffic.admission`), the stability detector
(:mod:`~repro.traffic.stability`) and the open-loop executor that ties
them together (:mod:`~repro.traffic.engine`).  Enabled per-run via
:class:`repro.core.config.ArrivalConfig`; with ``enabled=False`` (the
default) the closed-loop path is byte-identical to before this package
existed.
"""

from repro.traffic.admission import SHED_POLICIES, AdmissionQueue
from repro.traffic.arrivals import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    MmppProcess,
    PoissonProcess,
    make_process,
)
from repro.traffic.engine import OpenLoopExecutor
from repro.traffic.popularity import PopularityModel
from repro.traffic.scenarios import SCENARIOS, Phase, Scenario, make_scenario
from repro.traffic.stability import (
    StabilityMonitor,
    max_sustainable_rate,
    stability_verdict,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "AdmissionQueue",
    "ArrivalProcess",
    "MmppProcess",
    "OpenLoopExecutor",
    "Phase",
    "PoissonProcess",
    "PopularityModel",
    "SCENARIOS",
    "SHED_POLICIES",
    "Scenario",
    "StabilityMonitor",
    "make_process",
    "make_scenario",
    "max_sustainable_rate",
    "stability_verdict",
]
