"""Popularity model: uniform byte-identity, skew, shifted hotspot."""

import numpy as np
import pytest

from repro.sim import RngRegistry
from repro.traffic import PopularityModel


def _rng(seed=11):
    return RngRegistry(seed=seed).stream("traffic.ops[0]")


class TestUniformPath:
    def test_pick_many_matches_raw_choice_exactly(self):
        """s=0 must consume the stream exactly like the closed-loop draw
        (``rng.choice(n, size, replace=...)``) — the byte-identity
        contract the workload hooks rely on."""
        model = PopularityModel(s=0.0)
        got = model.pick_many(_rng(), 16, 6, replace=False)
        want = _rng().choice(16, 6, replace=False)
        assert list(got) == list(want)

    def test_pick_matches_raw_integers_exactly(self):
        model = PopularityModel(s=0.0)
        got = [model.pick(_rng(seed=s), 100) for s in range(20)]
        want = [int(_rng(seed=s).integers(0, 100)) for s in range(20)]
        assert got == want


class TestSkew:
    def test_skew_concentrates_on_hotspot(self):
        model = PopularityModel(s=1.5)
        rng = _rng()
        draws = model.pick_many(rng, 50, 4000)
        counts = np.bincount(draws, minlength=50)
        # rank 0 (object 0, no rotation) is by far the most popular
        assert counts[0] == counts.max()
        assert counts[0] > 4000 / 50 * 5

    def test_set_skew_retargets(self):
        model = PopularityModel(s=0.0)
        model.set_skew(2.0)
        draws = model.pick_many(_rng(), 50, 2000)
        counts = np.bincount(draws, minlength=50)
        assert counts[0] > 2000 / 50 * 5

    def test_same_seed_same_draws(self):
        model = PopularityModel(s=1.2)
        a = list(model.pick_many(_rng(), 64, 100))
        b = list(PopularityModel(s=1.2).pick_many(_rng(), 64, 100))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            PopularityModel(s=-1.0)
        with pytest.raises(ValueError):
            PopularityModel().pick(_rng(), 0)


class TestHotspot:
    def test_shift_jumps_hotspot(self):
        model = PopularityModel(s=2.5)
        model.set_hotspot_shift(3)
        assert model.hotspot(10) == 3
        draws = model.pick_many(_rng(), 10, 2000)
        counts = np.bincount(draws, minlength=10)
        assert counts[3] == counts.max()

    def test_rotation_is_a_relabelling(self):
        """Rotating must permute objects, not change the rank weights:
        the same stream draws the same ranks either way."""
        a = PopularityModel(s=1.5)
        b = PopularityModel(s=1.5)
        b.set_hotspot_shift(7)
        draws_a = a.pick_many(_rng(), 20, 50)
        draws_b = b.pick_many(_rng(), 20, 50)
        assert list((draws_a + 7) % 20) == list(draws_b)
