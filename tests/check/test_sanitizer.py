"""Runtime invariant sanitizer: unit checks per rule, corruption
detection against a live cluster, and the chaos-regime integration run
(sanitize=True completes with zero violations and an unchanged timeline)."""

import pytest

from repro.check import InvariantViolation, Sanitizer
from repro.core.cluster import Cluster
from repro.core.config import CheckConfig, ClusterConfig, FaultConfig
from repro.core.experiment import run_experiment
from repro.dstm.objects import ObjectState, home_node
from repro.dstm.transaction import ReadEntry, Transaction

CHAOS = FaultConfig(
    enabled=True,
    drop_rate=0.05,
    duplicate_rate=0.02,
    extra_delay_rate=0.05,
    extra_delay_max=0.02,
)


class TestUnitChecks:
    def test_version_fence_monotone(self):
        s = Sanitizer()
        s.note_register(0, "x", 3)
        s.note_register(0, "x", 3)  # RPC-retry re-registration: allowed
        s.note_register(0, "x", 5)
        with pytest.raises(InvariantViolation) as exc:
            s.note_register(0, "x", 4)
        assert exc.value.rule_id == "inv-version-fence"
        # Per-home watermarks: another shard's fence is independent.
        s.note_register(1, "x", 1)

    def test_withdraw_must_be_exactly_one_step(self):
        s = Sanitizer()
        s.note_register(0, "x", 6)
        s.note_withdraw(0, "x", 6, 5, "tx9")
        s.note_register(0, "x", 6)  # the next commit may reuse the slot
        with pytest.raises(InvariantViolation) as exc:
            s.note_withdraw(0, "x", 6, 3, "tx10")
        assert exc.value.rule_id == "inv-version-fence"

    def test_reclaim_requires_lapsed_lease_and_snapshot(self):
        s = Sanitizer()
        with pytest.raises(InvariantViolation) as exc:
            s.note_reclaim(0, "x", now=1.0, lease_expires_at=2.0,
                           has_snapshot=True)
        assert exc.value.rule_id == "inv-lease-expired"
        with pytest.raises(InvariantViolation):
            s.note_reclaim(0, "x", now=3.0, lease_expires_at=2.0,
                           has_snapshot=False)
        # A legal reclaim: lease lapsed, snapshot present.
        s.note_reclaim(0, "x", now=3.0, lease_expires_at=2.0,
                       has_snapshot=True)

    def test_reclaim_and_rehost_must_bump_the_fence(self):
        """The one re-host path, the lease reclaim, reports the re-host
        itself.  Its fence is the new custody generation: the
        version may step back to the restored one, the watermark restarts
        there, and nothing enters the history (only commits write)."""
        s = Sanitizer()
        s.note_register(0, "x", 5)
        s.note_rehost(0, "x", gen=1, version=3)
        assert s.history == []
        s.note_register(0, "x", 4, gen=1)  # the next commit, new generation
        with pytest.raises(InvariantViolation) as exc:
            s.note_register(0, "x", 6)  # a straggler from generation 0
        assert exc.value.rule_id == "inv-version-fence"
        assert exc.value.context["watermark"] == (1, 4)

    def test_rehost_must_restore_the_last_committed_version(self):
        """``inv-durable``: a re-host from a snapshot older than the last
        commit's version loses that commit.  A version that was only
        registered, never committed, may be stepped back over."""
        s = Sanitizer()
        s.note_rehost(0, "y", gen=1, version=0)  # nothing committed yet
        tx = Transaction(node=0)
        tx.wset["x"] = 6
        tx.serialized_at = 1.0
        s.note_register(0, "x", 4)
        s.note_commit(tx, {"x": 4}, node=0)
        s.note_register(0, "x", 5)  # registered, never installed
        s.note_rehost(0, "x", gen=1, version=4)
        with pytest.raises(InvariantViolation) as exc:
            s.note_rehost(0, "x", gen=2, version=3, now=2.0)
        assert exc.value.rule_id == "inv-durable"
        assert (exc.value.context["restored"], exc.value.context["committed"]) == (3, 4)
        assert exc.value.time == 2.0

    def test_no_commit_after_abort(self):
        s = Sanitizer()
        committed = Transaction(node=0)
        committed.rset["x"] = ReadEntry("x", 0, served_by=1, value=5)
        committed.wset["x"] = 6
        committed.serialized_at = 1.5
        s.note_commit(committed, {"x": 1}, node=0)  # never aborted: fine
        (record,) = s.history
        assert record.txid == committed.txid
        assert (record.reads, record.writes) == ((("x", 0, 5),), (("x", 1, 6),))
        dead = Transaction(node=0)
        dead.serialized_at = 2.0
        s.note_abort(dead.txid, "owner_failure")
        with pytest.raises(InvariantViolation) as exc:
            s.note_commit(dead, {}, node=0)
        assert exc.value.rule_id == "inv-no-commit-after-owner-failure"
        assert exc.value.context["abort_reason"] == "owner_failure"
        assert len(s.history) == 1, "a refused commit never joins the history"

    def test_cache_coherence(self):
        from repro.rpc.cache import LookupCache

        s = Sanitizer()
        cache = LookupCache(fencing=True)
        cache.put("a", 1, version=3)
        s.check_cache(cache)
        # Corrupt: a version record with no owner entry.
        cache._versions["ghost"] = 9
        with pytest.raises(InvariantViolation) as exc:
            s.check_cache(cache)
        assert exc.value.rule_id == "inv-cache-coherent"

    def test_violation_is_structured(self):
        s = Sanitizer()
        s.note_register(2, "obj7", 5)
        with pytest.raises(InvariantViolation) as exc:
            s.note_register(2, "obj7", 1, now=4.25)
        v = exc.value
        assert isinstance(v, AssertionError)
        assert (v.rule_id, v.subject, v.node) == ("inv-version-fence", "obj7", 2)
        assert v.time == 4.25
        assert "obj7" in str(v) and "inv-version-fence" in str(v)


class TestCorruptedCluster:
    """Deliberate corruption of live cluster state must be caught with
    the right rule id."""

    def make_cluster(self):
        return Cluster(ClusterConfig(
            num_nodes=3, seed=2, faults=CHAOS,
            check=CheckConfig(sanitize=True),
        ))

    def test_directory_version_regression_raises(self):
        cluster = self.make_cluster()
        cluster.alloc("obj", 10, node=0)
        home = home_node("obj", 3)
        directory = cluster.directories[home]
        directory.register("obj", owner=0, version=7)
        with pytest.raises(InvariantViolation) as exc:
            directory.register("obj", owner=0, version=2)
        assert exc.value.rule_id == "inv-version-fence"

    def test_forked_writable_copy_raises(self):
        cluster = self.make_cluster()
        cluster.alloc("obj", 10, node=0)
        # Fork the object by hand: two proxies hold the same version,
        # both mid-validation.
        obj0 = cluster.proxies[0].store["obj"]
        obj0.state = ObjectState.VALIDATING
        obj0.holder = "task-n0-1"
        from repro.dstm.objects import VersionedObject

        forked = VersionedObject("obj", 10, obj0.version)
        forked.state = ObjectState.VALIDATING
        forked.holder = "task-n1-1"
        cluster.proxies[1].store["obj"] = forked
        with pytest.raises(InvariantViolation) as exc:
            cluster.sanitizer.check_single_writable_copy("obj")
        assert exc.value.rule_id == "inv-single-writable-copy"
        assert sorted(exc.value.context["holders"]) == [0, 1]
        # a copy from before a re-host at the same version is a fenced
        # straggler, not a fork
        forked.gen = 1
        cluster.sanitizer.check_single_writable_copy("obj")

    def test_sanitizer_runs_on_real_transactions(self):
        cluster = self.make_cluster()
        cluster.alloc("obj", 100, node=0)

        def bump(tx):
            v = yield from tx.read("obj")
            yield from tx.write("obj", v + 1)
            return v

        assert cluster.run_transaction(bump, node=1) == 100
        assert cluster.sanitizer is not None
        assert cluster.sanitizer.checks > 0


class TestChaosIntegration:
    """The acceptance regime: a seeded chaos run under the sanitizer
    completes violation-free with an unchanged committed timeline."""

    def run_cell(self, sanitize):
        cfg = ClusterConfig(
            num_nodes=4, seed=5, scheduler="rts", cl_threshold=4,
            faults=CHAOS, check=CheckConfig(sanitize=sanitize),
        )
        return run_experiment("bank", cfg, read_fraction=0.5,
                              workers_per_node=2, horizon=4.0)

    def test_chaos_run_sanitized_and_unchanged(self):
        baseline = self.run_cell(sanitize=False)
        sanitized = self.run_cell(sanitize=True)  # no InvariantViolation
        assert baseline.commits > 10
        assert (sanitized.commits, sanitized.root_aborts,
                sanitized.sim_events) == (
            baseline.commits, baseline.root_aborts, baseline.sim_events
        )
        assert sanitized.extra == baseline.extra


def test_env_var_enables_sanitizing(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=1))
    assert cluster.sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    cluster = Cluster(ClusterConfig(num_nodes=2, seed=1))
    assert cluster.sanitizer is None
