"""ROADMAP item 1's chaos cell keeps committed state.

The cell is the 12-node reproducer of ``benchmarks/e2e/README.md``
finding 3 (bank at 50 % reads, RTS, every fault class on, 40 simulated
seconds); ``benchmarks/bench_chaos.py`` holds its one config and sweeps
it (``--sweep A-B``).  The seeds below lost money, forked the single
writable copy or crashed a commit with a ``KeyError`` until a transfer
carried a custody epoch and its receiver alone dropped a duplicate
(``TMProxy._install_transferred``); each case pins one of them, found by
sweeping cluster seeds 200–711, and runs in 0.2–2.5 host-s.

A sanitized run also keeps the committed history
(``cluster.sanitizer.history``: every committed root, and nothing else),
so the serializability oracle can name the first broken version fence.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

# run_chaos_cell(seed, sanitize=False, horizon=40.0, **fault_overrides)
#     -> (cluster, workload)
from benchmarks.bench_chaos import run_reproducer as run_chaos_cell  # noqa: E402
from repro.check import InvariantViolation  # noqa: E402
from repro.check.oracle import check_history  # noqa: E402
from repro.dstm.objects import home_node  # noqa: E402
from repro.workloads.bank import INITIAL_BALANCE  # noqa: E402


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
    """The money oracle is a read.  1.5 sim-s into seed 202 some
    accounts' owner leases have lapsed, so the next directory read would
    reclaim them; the oracle reports the snapshot such a reclaim would
    re-host and leaves the reclaim counter, the registry and every store
    as they were."""
    cluster, workload = run_chaos_cell(202, horizon=1.5)

    def state():
        registry = []
        for oid in workload.accounts:
            entry = cluster.directories[home_node(oid, cluster.num_nodes)].entry(oid)
            registry.append((oid, entry.owner, entry.gen, entry.version))
        stores = [
            sorted((oid, obj.gen, obj.version) for oid, obj in proxy.store.items())
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


def test_a_seed_names_its_transactions_alike_after_another_seed():
    """A sweep's pool worker runs many seeds in one process.  Transaction
    and message ids are process-global, so a seed's committed history
    used to carry different txids when another seed ran before it; the
    reproducer now restarts both counters first."""

    def txids(seed):
        cluster, _ = run_chaos_cell(seed, sanitize=True, horizon=1.0)
        return [record.txid for record in cluster.sanitizer.history]

    first = txids(201)
    txids(200)
    assert first and txids(201) == first


def test_seed_656_conserves_money():
    """Seed 656 used to end at 95924 of 96000."""
    total, expected = chaos_cell(656)
    assert total == expected


def test_seed_311_keeps_a_single_writable_copy():
    """Seed 311 used to trip ``inv-single-writable-copy`` at t = 1.2: n7
    passed ``bank/acct0_3`` v1 on, then installed a re-grant of the very
    transfer it had taken."""
    total, expected = chaos_cell(311, sanitize=True)
    assert total == expected


@pytest.mark.parametrize("seed", [337, 349, 390, 453, 619, 665, 694])
def test_commit_finds_its_written_objects(seed, monkeypatch):
    """These seeds used to raise a ``KeyError`` in
    ``TFAEngine._register``: a duplicate transfer replaced a copy a local
    root was validating, and the next release sent it away.  Run
    unsanitized, the way the sweep found them."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    total, expected = chaos_cell(seed)
    assert total == expected


def test_seed_656_history_serializes():
    """Two commits used to install ``bank/acct2_2`` v1 here."""
    assert history_violations(656) == []


def test_seed_582_history_has_no_version_gap():
    """A commit registers v_n and aborts; its withdraw lands late.  A
    lease reclaim used to re-host at ``max(entry.version,
    snapshot_version) + 1``, so the chain of ``bank/acct8_2`` skipped
    v_n.  A re-host now keeps the snapshot's version and bumps the
    custody generation instead."""
    assert history_violations(582) == []


def test_seed_756_keeps_a_transfer_registered_through_a_partition():
    """n2 installed ``bank/acct2_5`` v5 and handed it to n3; a partition
    cut n3 off from the home, and the one send of its transfer
    registration was lost.  The old owner's lease lapsed, the home
    re-hosted v4 from under n3 and a later commit installed v5 again
    (95939 of 96000).  The registration is now retried like every other
    call nobody waits on."""
    cluster, workload = run_chaos_cell(756, sanitize=True)
    total = sum(cluster.authoritative_value(a) for a in workload.accounts)
    assert total == workload.expected_total()
    initial = {oid: INITIAL_BALANCE for oid in workload.accounts}
    assert check_history(cluster.sanitizer.history, initial=initial) == []


@pytest.mark.parametrize("seed", range(200, 216))
def test_sanitized_cell_conserves_money_and_serializes(seed):
    """Sanitized, so a forked writable copy raises at the violating
    event; ten of these sixteen seeds did before the custody epoch.
    Re-hosts write nothing to the history: they restore a committed
    version, so its chain stays contiguous without them."""
    cluster, workload = run_chaos_cell(seed, sanitize=True)
    total = sum(cluster.authoritative_value(a) for a in workload.accounts)
    assert total == workload.expected_total()
    initial = {oid: INITIAL_BALANCE for oid in workload.accounts}
    assert check_history(cluster.sanitizer.history, initial=initial) == []


@pytest.mark.xfail(
    strict=True,
    raises=InvariantViolation,
    reason="ROADMAP item 1: a partition longer than lease_duration + "
    "reclaim_grace re-hosts an object whose last commit had not yet "
    "published to its home; the sanitizer raises inv-durable at that "
    "reclaim",
)
def test_seed_223_survives_a_long_partition():
    """Seed 223 is clean at the cell's 0.5-s partitions.  With 3-s
    partitions the home re-hosts an account from under a commit whose
    publish had not landed.  Unsanitized, the money oracle ends 5 short
    and the history shows a duplicate fence, a fence-order break, a
    precedence cycle and a stale read; sanitized, the run stops at the
    reclaim with ``inv-durable``."""
    cluster, workload = run_chaos_cell(223, sanitize=True, partition_duration=3.0)
    total = sum(cluster.authoritative_value(a) for a in workload.accounts)
    initial = {oid: INITIAL_BALANCE for oid in workload.accounts}
    violations = check_history(cluster.sanitizer.history, initial=initial)
    assert (total, violations) == (workload.expected_total(), [])
