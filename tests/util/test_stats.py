"""Unit and property tests for the online estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import Ewma


class TestEwma:
    def test_invalid_alpha(self):
        for alpha in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                Ewma(alpha=alpha)

    def test_no_data_no_initial_raises(self):
        with pytest.raises(ValueError):
            Ewma().value

    def test_initial_fallback(self):
        e = Ewma(initial=5.0)
        assert e.available
        assert e.value == 5.0

    def test_first_observation_sets_mean(self):
        e = Ewma(alpha=0.5)
        e.observe(10.0)
        assert e.value == 10.0

    def test_converges_to_constant(self):
        e = Ewma(alpha=0.3)
        for _ in range(100):
            e.observe(7.0)
        assert e.value == pytest.approx(7.0)

    def test_tracks_level_shift(self):
        e = Ewma(alpha=0.5)
        for _ in range(20):
            e.observe(0.0)
        for _ in range(20):
            e.observe(100.0)
        assert e.value > 99.0

    def test_alpha_one_is_last_value(self):
        e = Ewma(alpha=1.0)
        e.observe(3.0)
        e.observe(9.0)
        assert e.value == 9.0

    def test_hand_computed_sequence(self):
        e = Ewma(alpha=0.25)
        e.observe(4.0)   # mean = 4
        e.observe(8.0)   # mean = 4 + .25*4 = 5
        assert e.value == pytest.approx(5.0)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                              allow_nan=False), min_size=1, max_size=100),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_stays_within_observed_range(self, data, alpha):
        e = Ewma(alpha=alpha)
        for x in data:
            e.observe(x)
        assert min(data) - 1e-9 <= e.value <= max(data) + 1e-9
