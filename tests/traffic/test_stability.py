"""Stability detector: verdicts, windowed monitor, bisection driver."""

import pytest

from repro.sim import Environment
from repro.traffic.admission import AdmissionQueue
from repro.traffic.stability import (
    StabilityMonitor,
    max_sustainable_rate,
    stability_verdict,
)


class TestVerdict:
    def test_bounded_is_stable(self):
        v = stability_verdict([3.0, 4.0, 3.5, 3.8, 4.1, 3.9])
        assert v["stable"] is True
        assert v["reason"] == "bounded"

    def test_divergent_is_unstable(self):
        v = stability_verdict([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        assert v["stable"] is False
        assert v["reason"] == "divergent"
        assert v["tail_depth"] > v["head_depth"]

    def test_shallow_tail_is_always_stable(self):
        """Growth ratio alone must not flag a near-empty queue (0.01 ->
        0.04 'quadrupled' but the system is obviously keeping up)."""
        v = stability_verdict([0.01, 0.01, 0.04, 0.04])
        assert v["stable"] is True

    def test_shedding_is_unstable_even_with_bounded_queues(self):
        """Admission control can hold depth flat by dropping work — that
        is saturation, not stability."""
        v = stability_verdict([1.0, 1.0, 1.0, 1.0], shed_rate=0.2)
        assert v["stable"] is False
        assert v["reason"] == "shedding"

    def test_small_shed_tolerated(self):
        v = stability_verdict([1.0, 1.0, 1.0, 1.0], shed_rate=0.01)
        assert v["stable"] is True

    def test_short_run_uses_absolute_bound(self):
        assert stability_verdict([0.5, 1.0])["reason"] == "short-run-bounded"
        assert stability_verdict([10.0])["stable"] is False

    def test_empty_run(self):
        v = stability_verdict([])
        assert v["stable"] is True


class TestMonitor:
    def test_window_means_integrate_depth(self):
        env = Environment()
        q = AdmissionQueue(env, 0, capacity=100)
        monitor = StabilityMonitor(env, [q], window=1.0)
        env.process(monitor.run())

        def script():
            q.offer("a")             # depth 1 over [0, 2)
            yield env.timeout(2.0)
            q.offer("b")             # depth 2 over [2, 4)
            yield env.timeout(2.0)

        env.process(script())
        env.run(until=4.0)
        assert monitor.window_means == pytest.approx([1.0, 1.0, 2.0, 2.0])

    def test_stop_halts_the_series(self):
        env = Environment()
        q = AdmissionQueue(env, 0, capacity=10)
        monitor = StabilityMonitor(env, [q], window=1.0)
        env.process(monitor.run())
        env.run(until=2.0)
        monitor.stop()
        env.run(until=10.0)
        assert len(monitor.window_means) == 2

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            StabilityMonitor(Environment(), [], window=0.0)


class TestBisection:
    def test_finds_threshold(self):
        probes = []

        def probe(rate):
            probes.append(rate)
            return rate <= 7.3

        best, log = max_sustainable_rate(probe, 1.0, 16.0, tol=0.1)
        assert 7.3 - 0.1 <= best <= 7.3
        assert log == [(r, r <= 7.3) for r in probes]

    def test_all_stable_returns_hi(self):
        best, log = max_sustainable_rate(lambda r: True, 1.0, 8.0)
        assert best == 8.0
        assert len(log) == 2             # lo + hi, no bisection needed

    def test_all_unstable_returns_zero(self):
        best, log = max_sustainable_rate(lambda r: False, 1.0, 8.0)
        assert best == 0.0
        assert len(log) == 1             # lo failing short-circuits

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            max_sustainable_rate(lambda r: True, 8.0, 1.0)
