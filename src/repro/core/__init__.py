"""Public API: cluster facade, atomic transaction runners, metrics and
the workload executor.

The experiment harness (``run_experiment``, ``ExperimentResult``) is not
re-exported: a default cell never runs it, so it lives only in
:mod:`repro.core.experiment`.
"""

from repro.core.api import Cluster, SchedulerKind, TransactionHandle
from repro.core.config import ArrivalConfig, ClusterConfig
from repro.core.executor import WorkloadExecutor
from repro.core.metrics import MetricsCollector

__all__ = [
    "ArrivalConfig",
    "Cluster",
    "ClusterConfig",
    "MetricsCollector",
    "SchedulerKind",
    "TransactionHandle",
    "WorkloadExecutor",
]
