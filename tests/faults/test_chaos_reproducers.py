"""ROADMAP item 1, pinned: under faults the fault layer loses committed
state.

The cell is the 12-node reproducer of ``benchmarks/e2e/README.md``
finding 3 (bank at 50 % reads, RTS, every fault class on, 40 simulated
seconds).  Each case is a strict xfail: it fails at the violating seed
today, and the change that fixes the fault layer turns it into an
unexpected pass — that change must drop the marker.  The seeds were
found by sweeping cluster seeds 200–711 (ROADMAP item 1 lists every
failing one); each case runs in 0.2–2.5 host-s.

A sanitized run also keeps the committed history
(``cluster.sanitizer.history``: every committed root plus every re-host),
so the serializability oracle can name the first broken version fence.
"""

import pytest

from repro.check import InvariantViolation
from repro.check.oracle import check_history
from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig
from repro.core.executor import WorkloadExecutor
from repro.dstm.objects import home_node
from repro.workloads.bank import INITIAL_BALANCE
from repro.workloads.registry import make_workload


def run_chaos_cell(seed, sanitize=False, horizon=40.0):
    """Run the reproducer to ``horizon``; returns the cluster and the
    bank workload."""
    config = ClusterConfig(
        num_nodes=12, seed=seed, scheduler="rts", cl_threshold=4,
        check=dict(sanitize=sanitize),
        faults=dict(
            enabled=True, drop_rate=0.05, duplicate_rate=0.02,
            extra_delay_rate=0.05, extra_delay_max=0.02, rpc_timeout=0.15,
            lease_duration=0.8, lease_renew_interval=0.25, reclaim_grace=0.8,
            crash_rate=0.2, crash_duration=0.5, partition_rate=0.1,
            schedule_horizon=40.0,
        ),
    )
    cluster = Cluster(config)
    workload = make_workload("bank", read_fraction=0.5)
    executor = WorkloadExecutor(cluster, workload, workers_per_node=2,
                                horizon=horizon, max_attempts_per_tx=256)
    executor.setup()
    executor.run()
    return cluster, workload


def chaos_cell(seed, sanitize=False):
    """Run the reproducer to its horizon; returns the bank total and the
    total it must equal."""
    cluster, workload = run_chaos_cell(seed, sanitize)
    total = sum(cluster.authoritative_value(a) for a in workload.accounts)
    return total, workload.expected_total()


def history_violations(seed):
    """Run the reproducer sanitized; returns what the serializability
    oracle finds in the committed history (every account opens at its
    initial balance)."""
    cluster, workload = run_chaos_cell(seed, sanitize=True)
    initial = {oid: INITIAL_BALANCE for oid in workload.accounts}
    return check_history(cluster.sanitizer.history, initial=initial)


def test_reading_the_oracle_changes_nothing():
    """The money oracle is a read.  Ten seconds into seed 200 an account's
    owner lease has lapsed, so the next directory read would reclaim it;
    the oracle reports the snapshot such a reclaim would re-host and
    leaves the reclaim counter, the registry and every store as they
    were."""
    cluster, workload = run_chaos_cell(200, horizon=10.0)

    def state():
        registry = []
        for oid in workload.accounts:
            entry = cluster.directories[home_node(oid, cluster.num_nodes)].entry(oid)
            registry.append((oid, entry.owner, entry.version))
        stores = [
            sorted((oid, obj.version) for oid, obj in proxy.store.items())
            for proxy in cluster.proxies
        ]
        return cluster.metrics.lease_reclaims.value, registry, stores

    due = [
        oid for oid in workload.accounts
        if cluster.directories[home_node(oid, cluster.num_nodes)]
        .recovery.reclaimable(oid)
    ]
    assert due, "the cell must hold an entry a read would reclaim"
    before = state()
    total = sum(cluster.authoritative_value(a) for a in workload.accounts)
    assert state() == before
    assert total == workload.expected_total()


@pytest.mark.xfail(
    strict=True,
    reason="seed 656 ends at 95924 of 96000: committed money is lost",
)
def test_seed_656_conserves_money():
    total, expected = chaos_cell(656)
    assert total == expected


@pytest.mark.xfail(
    strict=True, raises=InvariantViolation,
    reason="inv-single-writable-copy: two nodes hold bank/acct0_3 at one "
           "version at t=1.2",
)
def test_seed_311_keeps_a_single_writable_copy():
    chaos_cell(311, sanitize=True)


@pytest.mark.xfail(
    strict=True, raises=KeyError,
    reason="TFAEngine._register reads self.proxy.store[oid] for a written "
           "object this node no longer holds",
)
@pytest.mark.parametrize("seed", [337, 349, 390, 453, 619, 665, 694])
def test_commit_finds_its_written_objects(seed, monkeypatch):
    """Pinned unsanitized, the way the sweep found them: sanitized, seed
    619 trips ``inv-single-writable-copy`` at t = 15.4 first."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    chaos_cell(seed)


def test_seed_200_history_serializes():
    """A clean cell's history is clean.  Seed 200 re-hosts
    ``bank/acct1_2`` once: without that write in the history the oracle
    would report the version the re-host installed, and the reads of
    it, as phantoms."""
    assert history_violations(200) == []


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="two commits install bank/acct2_2 v1: duplicate-fence, "
           "stale-read-value and fence-order",
)
def test_seed_656_history_serializes():
    assert history_violations(656) == []
