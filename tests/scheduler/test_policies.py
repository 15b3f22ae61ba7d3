"""Unit tests for the three scheduling policies (owner-side decisions)."""

import numpy as np
import pytest

from repro.dstm.errors import AbortReason
from repro.dstm.objects import ObjectMode
from repro.dstm.transaction import ETS, Transaction
from repro.scheduler import (
    BackoffScheduler,
    ConflictContext,
    DecisionKind,
    RtsScheduler,
    TfaScheduler,
)
from repro.scheduler.adaptive import EPOCH, INITIAL_THRESHOLD
from repro.scheduler.backoff import BACKOFF_CAP
from repro.scheduler.queues import RequesterList
from repro.scheduler.rts import BACKOFF_SAFETY, MAX_BACKOFF


def ctx(
    mode=ObjectMode.ACQUIRE,
    elapsed=1.0,
    expected_remaining=0.5,
    my_cl=0,
    queue=None,
    holder_remaining=0.2,
    now=10.0,
):
    queue = queue if queue is not None else RequesterList()
    return ConflictContext(
        mode=mode,
        requester_node=1,
        requester_txid="task-1",
        requester_cl=my_cl,
        ets=ETS(start=now - elapsed, request=now,
                expected_commit=now + expected_remaining),
        queue=queue,
        holder_remaining=holder_remaining,
    )


def root():
    return Transaction(node=0)


class TestTfaScheduler:
    def test_always_aborts(self):
        s = TfaScheduler()
        assert s.on_conflict(ctx()).kind is DecisionKind.ABORT

    def test_zero_retry_backoff(self):
        s = TfaScheduler()
        assert s.retry_backoff(root(), AbortReason.BUSY_OBJECT, 3) == 0.0


class TestBackoffScheduler:
    def test_always_aborts_at_owner(self):
        s = BackoffScheduler()
        assert s.on_conflict(ctx()).kind is DecisionKind.ABORT

    def test_backoff_grows_with_attempts(self):
        s = BackoffScheduler(rng=np.random.default_rng(0))
        samples1 = [s.retry_backoff(root(), AbortReason.BUSY_OBJECT, 1) for _ in range(200)]
        samples8 = [s.retry_backoff(root(), AbortReason.BUSY_OBJECT, 8) for _ in range(200)]
        assert np.mean(samples8) > np.mean(samples1)

    def test_backoff_capped(self):
        s = BackoffScheduler(rng=np.random.default_rng(0))
        for attempt in range(20):
            assert s.retry_backoff(root(), AbortReason.BUSY_OBJECT, attempt) <= BACKOFF_CAP

    def test_validation_aborts_retry_immediately(self):
        s = BackoffScheduler()
        assert s.retry_backoff(root(), AbortReason.COMMIT_VALIDATION, 4) == 0.0
        assert s.retry_backoff(root(), AbortReason.EARLY_VALIDATION, 4) == 0.0


class TestRtsScheduler:
    def test_long_running_low_cl_enqueued(self):
        s = RtsScheduler(cl_threshold=4)
        decision = s.on_conflict(ctx(elapsed=5.0, my_cl=0))
        assert decision.kind is DecisionKind.ENQUEUE
        assert decision.backoff > 0
        assert s.enqueued == 1

    def test_short_exec_acquirer_aborted(self):
        """Algorithm 3 line 11: bk >= elapsed -> abort (cheap to redo)."""
        s = RtsScheduler(cl_threshold=10)
        queue = RequesterList()
        queue.bk = 2.0
        decision = s.on_conflict(ctx(elapsed=1.0, queue=queue))
        assert decision.kind is DecisionKind.ABORT
        assert s.rejected_short_exec == 1

    def test_high_cl_aborted(self):
        s = RtsScheduler(cl_threshold=3)
        decision = s.on_conflict(ctx(elapsed=5.0, my_cl=5))
        assert decision.kind is DecisionKind.ABORT
        assert s.rejected_high_cl == 1

    def test_paper_admission_parks_when_backlog_empty(self):
        """Algorithm 3 literal: only bk counts, so with an empty backlog
        even a fresh snapshot request is parked."""
        s = RtsScheduler(cl_threshold=10)
        decision = s.on_conflict(
            ctx(mode=ObjectMode.READ, elapsed=0.01, holder_remaining=0.2)
        )
        assert decision.kind is DecisionKind.ENQUEUE

    def test_long_elapsed_copy_request_enqueued(self):
        s = RtsScheduler(cl_threshold=10)
        decision = s.on_conflict(
            ctx(mode=ObjectMode.READ, elapsed=3.0, holder_remaining=0.2)
        )
        assert decision.kind is DecisionKind.ENQUEUE

    def test_acquirer_bumps_backlog_copy_does_not(self):
        s = RtsScheduler(cl_threshold=10)
        q1 = RequesterList()
        s.on_conflict(ctx(mode=ObjectMode.ACQUIRE, elapsed=5.0,
                          expected_remaining=0.7, queue=q1))
        assert q1.bk == pytest.approx(0.7)
        q2 = RequesterList()
        s.on_conflict(ctx(mode=ObjectMode.READ, expected_remaining=0.7, queue=q2))
        assert q2.bk == 0.0

    def test_backoff_includes_holder_remaining_and_backlog(self):
        s = RtsScheduler(cl_threshold=10)
        queue = RequesterList()
        queue.bk = 0.3
        decision = s.on_conflict(
            ctx(elapsed=5.0, holder_remaining=0.2, queue=queue)
        )
        assert decision.backoff == pytest.approx(0.5 * BACKOFF_SAFETY)

    def test_backoff_safety_scales_budget(self):
        assert BACKOFF_SAFETY > 1.0
        s = RtsScheduler(cl_threshold=10)
        decision = s.on_conflict(ctx(elapsed=5.0, holder_remaining=0.2))
        assert decision.backoff == pytest.approx(0.2 * BACKOFF_SAFETY)
        assert decision.backoff > 0.2

    def test_backoff_capped(self):
        s = RtsScheduler(cl_threshold=10)
        queue = RequesterList()
        queue.bk = MAX_BACKOFF
        decision = s.on_conflict(ctx(elapsed=100.0, queue=queue))
        assert decision.backoff == MAX_BACKOFF

    def test_queue_membership_recorded(self):
        s = RtsScheduler(cl_threshold=10)
        queue = RequesterList()
        s.on_conflict(ctx(elapsed=5.0, queue=queue))
        assert "task-1" in queue

    def test_enqueue_contention_counts_queue(self):
        """Each queued transaction raises the next requester's CL."""
        s = RtsScheduler(cl_threshold=3)
        queue = RequesterList()
        first = s.on_conflict(ctx(elapsed=5.0, queue=queue))
        assert first.kind is DecisionKind.ENQUEUE
        # queue length 1 + requester 1 + myCL 1 = 3 >= threshold.
        second = s.on_conflict(ctx(elapsed=5.0, my_cl=1, queue=queue))
        assert second.kind is DecisionKind.ABORT

    def test_retry_backoff_is_zero(self):
        s = RtsScheduler(cl_threshold=3)
        assert s.retry_backoff(root(), AbortReason.BUSY_OBJECT, 1) == 0.0

    def test_adaptive_threshold_integration(self):
        """No fixed threshold: RTS builds its own controller, feeds it its
        commits and decides with the threshold it climbs to."""
        s = RtsScheduler()
        assert s.cl_threshold == INITIAL_THRESHOLD
        # Three epochs at a steady rate: the second and third each step up.
        for i in range(1, 31):
            s.on_commit(root(), duration=0.1, now_local=i * EPOCH / 10)
        assert s.adaptive.adjustments == 2
        assert s.cl_threshold == s.adaptive.current == INITIAL_THRESHOLD + 2

    def test_fixed_threshold_has_no_adaptive(self):
        s = RtsScheduler(cl_threshold=4)
        assert s.adaptive is None
        assert s.cl_threshold == 4


def profile_root(profile):
    return Transaction(node=0, profile=profile)


class TestBasePolicyDefaults:
    """The transaction stats table: per profile, an EWMA of commit
    latencies, and the fallback before a profile has committed."""

    def test_on_commit_feeds_stats_table(self):
        s = TfaScheduler()
        s.on_commit(profile_root("p"), duration=0.25, now_local=1.0)
        assert s.expected_duration("p", fallback=9.0) == pytest.approx(0.25)

    def test_estimate_tracks_commits(self):
        s = TfaScheduler()
        for _ in range(50):
            s.on_commit(profile_root("bank.transfer"), duration=0.2, now_local=1.0)
        assert s.expected_duration("bank.transfer", fallback=9.0) == pytest.approx(0.2)

    def test_profiles_independent(self):
        s = TfaScheduler()
        s.on_commit(profile_root("a"), duration=0.1, now_local=1.0)
        s.on_commit(profile_root("b"), duration=0.9, now_local=1.0)
        assert s.expected_duration("a", 0.0) == pytest.approx(0.1)
        assert s.expected_duration("b", 0.0) == pytest.approx(0.9)

    def test_fallback_before_data(self):
        assert TfaScheduler().expected_duration("unknown", 0.7) == 0.7

    def test_expected_duration_fallback(self):
        s = TfaScheduler()
        s.on_commit(profile_root("a"), duration=0.1, now_local=1.0)
        assert s.expected_duration("unknown", 0.7) == 0.7
