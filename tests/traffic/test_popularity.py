"""Popularity model: uniform byte-identity, skew, and the
Zipf sampler's exactness against ``Generator.choice``."""

import numpy as np
import pytest

from repro.sim import RngRegistry
from repro.traffic.popularity import PopularityModel, zipf_draw


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
        # rank 0 (object 0) is by far the most popular
        assert counts[0] == counts.max()
        assert counts[0] > 4000 / 50 * 5

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


def _weights(n, s):
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return w / w.sum()


class TestSamplerMatchesNumpy:
    """``zipf_draw`` and ``PopularityModel.pick`` return what numpy's
    ``Generator.choice(n, size, replace, p=weights)`` returns and leave
    the stream where it leaves it.

    The repo's ``s > 0`` draws depend on numpy only through
    ``rng.random()`` now; the replayed ``choice`` algorithm (CDF search,
    rejection rounds without replacement) is this repo's own code.  If
    this class fails after a numpy upgrade while the seeded pins hold,
    numpy's ``choice`` moved, not the simulation: the pins record the
    old ``choice`` stream and still hold.
    """

    SEEDS = range(40)

    @pytest.mark.parametrize("s", [0.5, 1.2, 2.0])
    @pytest.mark.parametrize("n", [8, 20, 64, 640])
    def test_without_replacement(self, s, n):
        p = _weights(n, s)
        for seed in self.SEEDS:
            want_rng = np.random.default_rng(seed)
            got_rng = np.random.default_rng(seed)
            for size in (1, 2, 4, 6, 8):
                want = want_rng.choice(n, size, replace=False, p=p).tolist()
                assert zipf_draw(got_rng, n, s, size, False) == want
            assert got_rng.random() == want_rng.random()

    def test_without_replacement_exhausting_the_population(self):
        """size == n needs many rejection rounds, each rebuilding the CDF."""
        for s in (0.8, 3.0):
            for seed in self.SEEDS:
                want_rng = np.random.default_rng(seed)
                got_rng = np.random.default_rng(seed)
                want = want_rng.choice(12, 12, replace=False, p=_weights(12, s))
                assert zipf_draw(got_rng, 12, s, 12, False) == want.tolist()
                assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("s", [0.5, 1.2, 2.0])
    @pytest.mark.parametrize("n", [8, 64, 640])
    def test_with_replacement_and_single_picks(self, s, n):
        p = _weights(n, s)
        model = PopularityModel(s=s)
        for seed in self.SEEDS:
            want_rng = np.random.default_rng(seed)
            got_rng = np.random.default_rng(seed)
            assert model.pick(got_rng, n) == int(want_rng.choice(n, p=p))
            want = want_rng.choice(n, 7, replace=True, p=p).tolist()
            assert zipf_draw(got_rng, n, s, 7, True) == want
            assert got_rng.random() == want_rng.random()

    def test_refuses_a_sample_larger_than_the_population(self):
        with pytest.raises(ValueError, match="larger sample than population"):
            zipf_draw(_rng(), 8, 1.2, 9, False)

    def test_refuses_fewer_positive_weights_than_size(self):
        """s = 2000 underflows every weight but rank 0's: two distinct
        ranks cannot be drawn, and rejection would never end."""
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="Fewer non-zero entries"):
                zipf_draw(_rng(), 8, 2000.0, 2, False)
            assert zipf_draw(_rng(), 8, 2000.0, 1, False) == [0]
