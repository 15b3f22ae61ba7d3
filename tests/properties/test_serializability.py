"""Serializability oracle tests.

The strongest end-to-end check we have: run a workload under real
contention, record every *committed* operation with its result, then
replay the log in commit order against a plain-Python model.  If the
D-STM is serializable (TFA's guarantee), the simple sequential model must
reproduce every committed result and the final shared state.
"""

import pytest

from repro.core.cluster import Cluster
from repro.core.config import ClusterConfig, SchedulerKind
from repro.core.executor import WorkloadExecutor
from repro.workloads.bank import BankWorkload
from repro.workloads.dht import DhtWorkload
from repro.workloads.linkedlist import LinkedListWorkload

SCHEDULERS = [SchedulerKind.TFA, SchedulerKind.TFA_BACKOFF, SchedulerKind.RTS]


def run_workload(workload, scheduler, seed=11, num_nodes=6, horizon=6.0,
                 workers=2, log_ops=False):
    cfg = ClusterConfig(num_nodes=num_nodes, seed=seed, scheduler=scheduler,
                        cl_threshold=4)
    cluster = Cluster(cfg)
    executor = WorkloadExecutor(cluster, workload, workers_per_node=workers,
                                horizon=horizon)
    executor.log_ops = log_ops
    executor.setup()
    executor.run()
    return cluster, executor


class TestMoneyConservation:
    """Any serializable execution of transfers conserves total money."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("read_fraction", [0.9, 0.1])
    def test_total_balance_invariant(self, scheduler, read_fraction):
        wl = BankWorkload(read_fraction=read_fraction)
        cluster, executor = run_workload(wl, scheduler)
        assert cluster.metrics.commits.value > 0, "run must make progress"
        total = sum(cluster.committed_value(a) for a in wl.accounts)
        assert total == wl.expected_total()

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_balance_reads_see_conserved_total_sometimes(self, scheduler):
        """Full-ledger read transactions must observe the exact total."""
        wl = BankWorkload(read_fraction=0.5, accounts_per_node=2,
                          balance_sample=12)  # sample == whole ledger (6 nodes x 2)
        cluster, executor = run_workload(wl, scheduler, log_ops=True,
                                         num_nodes=6)
        totals = [
            result for (_t, _seq, op, result) in executor.op_log
            if op.profile == "bank.balance"
        ]
        assert totals, "need at least one committed ledger read"
        for total in totals:
            assert total == wl.expected_total()


class TestDhtSerializability:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_commit_order_replay_matches(self, scheduler):
        wl = DhtWorkload(read_fraction=0.5, buckets_per_node=2,
                         keys_per_bucket=4)
        cluster, executor = run_workload(wl, scheduler, log_ops=True)
        assert cluster.metrics.commits.value > 0

        # Replay the committed log in commit order and verify the final
        # value of every (bucket, key) the log touched — last committed
        # write wins under any serializable execution.
        touched = {}
        for (_t, _seq, op, result) in sorted(executor.op_log,
                                             key=lambda r: (r[0], r[1])):
            if op.profile == "dht.put_multi":
                (puts,) = op.args
                for bucket, key, value in puts:
                    touched[(bucket, key)] = value
            elif op.profile == "dht.remove_multi":
                (removals,) = op.args
                for bucket, key in removals:
                    touched[(bucket, key)] = None

        # Every touched (bucket, key) must hold the last committed value.
        for (bucket, key), expected in touched.items():
            final_bucket = cluster.committed_value(bucket)
            actual = next((v for k, v in final_bucket if k == key), None)
            assert actual == expected, (
                f"{bucket}[{key}]: expected {expected!r} from commit-order "
                f"replay, found {actual!r}"
            )


class TestLinkedListSerializability:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_set_semantics_in_commit_order(self, scheduler):
        wl = LinkedListWorkload(read_fraction=0.3, key_space=12)
        cluster, executor = run_workload(wl, scheduler, log_ops=True,
                                         horizon=5.0)
        assert cluster.metrics.commits.value > 0

        # Seed the model with the initial membership recorded at setup,
        # then require every committed result to be consistent with the
        # commit-order sequential execution: add(k) -> True iff k was
        # absent, remove(k) -> True iff present, contains(k) matches.
        model = set(wl.initial_members["ll0"])
        for (_t, _seq, op, result) in sorted(executor.op_log,
                                             key=lambda r: (r[0], r[1])):
            prefix, key = op.args
            if op.profile == "ll.add":
                assert result == (key not in model), (
                    f"add({key}) returned {result} but model membership "
                    f"was {key in model}"
                )
                model.add(key)
            elif op.profile == "ll.remove":
                assert result == (key in model), (
                    f"remove({key}) returned {result} but model membership "
                    f"was {key in model}"
                )
                model.discard(key)
            elif op.profile == "ll.contains":
                assert result == (key in model), (
                    f"contains({key}) returned {result}, model says "
                    f"{key in model}"
                )

        # Final reachable list must equal the model exactly.
        final = set()
        curr = cluster.committed_value("ll0/head")
        while curr is not None:
            cell_key, nxt = cluster.committed_value(f"ll0/cell{curr}")
            final.add(cell_key)
            curr = nxt
        assert final == model
