"""Fault mode, pinned to the byte.

``tests/rpc/test_equivalence.py`` pins fault-free timelines.  This file
pins a faulted one: the obs JSONL of the chaos smoke cell (bank at 50 %
reads, RTS, 6 nodes, 6 simulated seconds, the ``bench_chaos`` regime at
a 5 % drop rate) with crashes and partitions switched on as well, so
that every fault timer runs too: retry windows, duplicates, extra
delays, heartbeats, lease reclaims and the crash and partition trace
markers.  Every event, with its simulated timestamp, is part of the
digest.  A change that means to keep the fault-mode schedule leaves the
constant alone.  A change that moves it on purpose re-records the
constant in the same commit and says why.
"""

import hashlib

from repro.core import ClusterConfig, SchedulerKind
from repro.core.cluster import reset_run_ids
from repro.core.config import FaultConfig, ObsConfig
from repro.core.experiment import run_experiment

FAULTS = FaultConfig(
    enabled=True, drop_rate=0.05, duplicate_rate=0.02,
    extra_delay_rate=0.05, extra_delay_max=0.02,
    crash_rate=0.3, crash_duration=0.5, partition_rate=0.3,
)

#: sha256 of the cell's obs JSONL, global id counters reset first
OBS_JSONL_SHA256 = (
    "8c3d5173f53d09ccae7e42bff56a80d004ec89eff4105559e9d73ae57e1c658e"
)


def test_chaos_cell_obs_jsonl_matches_the_recorded_sha(tmp_path):
    # the export embeds the process-global transaction and message ids
    reset_run_ids()
    path = tmp_path / "chaos.jsonl"
    cfg = ClusterConfig(
        num_nodes=6, seed=1, scheduler=SchedulerKind.RTS, cl_threshold=4,
        faults=FAULTS, obs=ObsConfig(enabled=True, jsonl_path=str(path)),
    )
    result = run_experiment("bank", cfg, read_fraction=0.5,
                            workers_per_node=2, horizon=6.0)
    assert result.commits > 10
    assert result.extra["fault_drops"] > 0
    text = path.read_text(encoding="utf-8")
    # the crash and partition markers are on the timeline being pinned
    for category in ('"fault.crash"', '"fault.partition"', '"fault.rpc_retry"'):
        assert category in text, category
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OBS_JSONL_SHA256
