"""Fault-tolerance properties: the three guarantees `repro.faults` makes.

1. **Strict additivity** — with ``FaultConfig(enabled=False)`` (the
   default) the subsystem is inert: runs are event-identical to the seed
   build, whatever the other fault knobs say.
2. **Determinism** — identical seeds give bit-identical runs *including*
   the fault timeline; a different seed gives a different timeline.
3. **Safety under faults** — with message drops/duplicates/crashes at the
   rates the acceptance criteria name, committed state stays serializable
   (money is conserved) and the system keeps making progress.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, FaultConfig, SchedulerKind
from repro.core.executor import WorkloadExecutor
from repro.workloads.bank import BankWorkload

SCHEDULERS = [SchedulerKind.TFA, SchedulerKind.RTS]

# Lossy-but-connected network: the acceptance regime (drop <= 0.05).
DROPPY = dict(
    enabled=True, drop_rate=0.05, duplicate_rate=0.02,
    extra_delay_rate=0.05, extra_delay_max=0.02,
)

# Node crashes on top of a (milder) lossy network.  Crash windows are
# confined to the first 4 simulated seconds so every node is back up
# well before quiescence.
CRASHY = dict(
    DROPPY, drop_rate=0.02, crash_rate=0.5, crash_duration=0.5,
    schedule_horizon=4.0,
)


def run_bank(scheduler, seed, faults=None, horizon=5.0, read_fraction=0.5):
    wl = BankWorkload(read_fraction=read_fraction)
    cfg = ClusterConfig(
        num_nodes=6, seed=seed, scheduler=scheduler, cl_threshold=4,
        faults=FaultConfig(**faults) if faults else FaultConfig(),
    )
    cluster = Cluster(cfg)
    ex = WorkloadExecutor(cluster, wl, workers_per_node=2, horizon=horizon)
    ex.setup()
    ex.run()
    return wl, cluster


def fingerprint(wl, cluster):
    """Everything observable: metrics, fault counters, time, final state."""
    m = cluster.metrics
    return (
        tuple(sorted(m.summary().items())),
        cluster.env.events_processed,
        round(cluster.env.now, 9),
        tuple(cluster.authoritative_value(a) for a in wl.accounts),
    )


class TestZeroFaultInertness:
    """enabled=False must be indistinguishable from not having the
    subsystem at all — whatever the other knobs are set to."""

    def test_disabled_config_is_event_identical_to_default(self):
        wl_a, ca = run_bank(SchedulerKind.RTS, seed=17)
        wl_b, cb = run_bank(
            SchedulerKind.RTS, seed=17,
            faults=dict(enabled=False, drop_rate=0.5, duplicate_rate=0.5,
                        crash_rate=5.0, partition_rate=5.0),
        )
        assert fingerprint(wl_a, ca) == fingerprint(wl_b, cb)

    def test_fault_counters_stay_zero_fault_free(self):
        _wl, cluster = run_bank(SchedulerKind.TFA, seed=17)
        m = cluster.metrics
        assert m.fault_drops.value == 0
        assert m.fault_duplicates.value == 0
        assert m.rpc_timeouts.value == 0
        assert m.rpc_retries.value == 0
        assert m.lease_reclaims.value == 0
        assert m.crash_aborts.value == 0
        assert cluster.fault_plan is None and cluster.network.faults is None
        assert all(p.rpc_client.policy is None for p in cluster.proxies)


class TestFaultDeterminism:
    @pytest.mark.parametrize("faults", [DROPPY, CRASHY],
                             ids=["droppy", "crashy"])
    def test_same_seed_bit_identical(self, faults):
        a = fingerprint(*run_bank(SchedulerKind.RTS, seed=23, faults=faults))
        b = fingerprint(*run_bank(SchedulerKind.RTS, seed=23, faults=faults))
        assert a == b

    def test_different_seed_differs(self):
        a = fingerprint(*run_bank(SchedulerKind.RTS, seed=23, faults=DROPPY))
        b = fingerprint(*run_bank(SchedulerKind.RTS, seed=24, faults=DROPPY))
        assert a != b


class TestSerializabilityUnderFaults:
    """Money conservation is the serializability oracle: any lost, doubled
    or torn transfer breaks the ledger total."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_conservation_under_drops_and_duplicates(self, scheduler, seed):
        wl, cluster = run_bank(scheduler, seed=seed, faults=DROPPY)
        assert cluster.metrics.fault_drops.value > 0, "injection must be live"
        assert cluster.metrics.commits.value > 10, "progress despite drops"
        total = sum(cluster.authoritative_value(a) for a in wl.accounts)
        assert total == wl.expected_total()

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("seed", [7, 11])
    def test_conservation_under_crashes(self, scheduler, seed):
        wl, cluster = run_bank(scheduler, seed=seed, faults=CRASHY,
                               horizon=6.0)
        assert cluster.fault_plan.crashes, "plan must schedule crashes"
        assert cluster.metrics.commits.value > 10, "progress despite crashes"
        total = sum(cluster.authoritative_value(a) for a in wl.accounts)
        assert total == wl.expected_total()
