"""Unit and property tests for measurement primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Tally, TimeWeighted
from repro.sim.monitor import percentile


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_increment(self):
        c = Counter("c")
        c.increment()
        c.increment(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_rate(self):
        c = Counter("c")
        c.increment(10)
        assert c.rate(5.0) == 2.0
        assert c.rate(0.0) == 0.0


class TestTally:
    def test_empty_tally(self):
        t = Tally("t")
        assert t.count == 0
        assert t.mean == 0.0
        assert t.variance == 0.0

    def test_single_observation(self):
        t = Tally("t")
        t.observe(4.0)
        assert t.mean == 4.0
        assert t.min == 4.0
        assert t.max == 4.0
        assert t.variance == 0.0

    def test_mean_and_variance_match_numpy(self):
        data = [1.5, 2.0, 8.0, -3.0, 0.25, 100.0]
        t = Tally("t")
        for x in data:
            t.observe(x)
        assert t.mean == pytest.approx(np.mean(data))
        assert t.variance == pytest.approx(np.var(data, ddof=1))
        assert t.stdev == pytest.approx(np.std(data, ddof=1))

    def test_percentile_requires_samples(self):
        t = Tally("t")
        t.observe(1)
        with pytest.raises(RuntimeError):
            t.percentile(50)

    def test_percentiles(self):
        t = Tally("t", keep_samples=True)
        for x in range(1, 101):
            t.observe(float(x))
        assert t.percentile(0) == 1.0
        assert t.percentile(100) == 100.0
        assert t.percentile(50) == pytest.approx(np.percentile(range(1, 101), 50))

    def test_percentile_out_of_range(self):
        t = Tally("t", keep_samples=True)
        t.observe(1)
        with pytest.raises(ValueError):
            t.percentile(101)

    def test_percentile_out_of_range_refused_without_samples(self):
        with pytest.raises(ValueError):
            Tally("t", keep_samples=True).percentile(150)

    def test_percentile_empty_returns_zero(self):
        assert Tally("t", keep_samples=True).percentile(50) == 0.0

    @pytest.mark.parametrize("q", [0.0, 12.5, 50.0, 95.0, 99.0, 100.0])
    def test_shared_percentile_is_numpy_linear(self, q):
        data = sorted([3.0, 0.5, 9.25, 1.0, 7.5, 2.0, 4.0])
        assert percentile(data, q) == pytest.approx(np.percentile(data, q))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_welford_agrees_with_numpy(self, data):
        t = Tally("t")
        for x in data:
            t.observe(x)
        assert t.mean == pytest.approx(np.mean(data), rel=1e-9, abs=1e-6)
        assert t.variance == pytest.approx(np.var(data, ddof=1), rel=1e-6, abs=1e-4)
        assert t.min == min(data)
        assert t.max == max(data)


class TestTimeWeighted:
    def test_constant_signal(self):
        tw = TimeWeighted("q", initial=3.0)
        assert tw.average(10.0) == 3.0

    def test_step_signal(self):
        tw = TimeWeighted("q", initial=0.0)
        tw.update(5.0, 10.0)   # 0 for 5s, then 10
        assert tw.average(10.0) == pytest.approx(5.0)

    def test_add_delta(self):
        tw = TimeWeighted("q")
        tw.add(1.0, 2.0)
        tw.add(2.0, 3.0)
        assert tw.level == 5.0

    def test_time_backwards_rejected(self):
        tw = TimeWeighted("q")
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 2.0)

    def test_average_before_last_update_rejected(self):
        tw = TimeWeighted("q")
        tw.update(5.0, 3.0)
        with pytest.raises(ValueError, match="time went backwards"):
            tw.average(1.0)

    def test_average_at_start_is_level(self):
        tw = TimeWeighted("q", initial=7.0, start_time=2.0)
        assert tw.average(2.0) == 7.0

    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=10.0),
                              st.floats(min_value=0.0, max_value=100.0)),
                    min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_piecewise_integral(self, steps):
        """Time-weighted average equals the hand-computed integral."""
        tw = TimeWeighted("q", initial=0.0)
        now = 0.0
        area = 0.0
        level = 0.0
        for dt, new_level in steps:
            area += level * dt
            now += dt
            tw.update(now, new_level)
            level = new_level
        horizon = now + 1.0
        area += level * 1.0
        assert tw.average(horizon) == pytest.approx(area / horizon, rel=1e-9, abs=1e-9)
