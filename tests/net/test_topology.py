"""Unit and property tests for topologies and the delay matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Topology
from repro.net.topology import MS
from repro.sim import RngRegistry


def make_topology(n=10, seed=1, **kw):
    rng = RngRegistry(seed=seed).stream("topology")
    return Topology(n, rng, **kw)


class TestConstruction:
    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            make_topology(n=0)

    def test_bad_delay_band_rejected(self):
        with pytest.raises(ValueError):
            make_topology(min_delay=5 * MS, max_delay=1 * MS)
        with pytest.raises(ValueError):
            make_topology(min_delay=0.0)

    def test_produces_n_positions(self):
        topo = make_topology(n=17)
        assert topo.positions.shape == (17, 2)

    def test_single_node(self):
        topo = make_topology(n=1)
        assert topo.delay(0, 0) == 0.0
        assert topo.mean_delay() == 0.0


class TestDelayMatrix:
    def test_self_delay_is_zero(self):
        topo = make_topology(n=8)
        for i in range(8):
            assert topo.delay(i, i) == 0.0

    def test_symmetric(self):
        topo = make_topology(n=12)
        np.testing.assert_allclose(topo.delays, topo.delays.T)

    def test_delays_within_band(self):
        topo = make_topology(n=20, min_delay=1 * MS, max_delay=50 * MS)
        off_diag = topo.delays[~np.eye(20, dtype=bool)]
        assert off_diag.min() >= 1 * MS - 1e-12
        assert off_diag.max() <= 50 * MS + 1e-12
        # The farthest pair sits exactly at max_delay.
        assert off_diag.max() == pytest.approx(50 * MS)

    def test_static_and_reproducible(self):
        a = make_topology(n=10, seed=3)
        b = make_topology(n=10, seed=3)
        np.testing.assert_array_equal(a.delays, b.delays)

    def test_different_seeds_differ(self):
        a = make_topology(n=10, seed=3)
        b = make_topology(n=10, seed=4)
        assert not np.array_equal(a.delays, b.delays)

    def test_metric_properties_hold(self):
        assert make_topology(n=15).verify_metric()

    @given(n=st.integers(min_value=2, max_value=40),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_distance_metric_property(self, n, seed):
        topo = make_topology(n=n, seed=seed)
        assert topo.verify_metric()


class TestQueries:
    def test_mean_delay_positive(self):
        assert make_topology(n=6).mean_delay() > 0

    def test_repr(self):
        assert "n=10" in repr(make_topology())


class TestMatchesNumpy:
    """The rows and the mean are built in plain Python; they must equal
    numpy's vectorised formula bit for bit (numpy is the reference: a
    failure after a numpy upgrade means its float kernels moved)."""

    @staticmethod
    def numpy_delays(topo):
        pos = topo.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1))
        peak = dist.max()
        scaled = np.zeros_like(dist) if peak <= 0.0 else dist / peak
        delays = topo.min_delay + scaled * (topo.max_delay - topo.min_delay)
        np.fill_diagonal(delays, 0.0)
        return delays

    def test_positions_are_the_streams_uniform_draws(self):
        topo = make_topology(n=9, seed=5)
        want = RngRegistry(seed=5).stream("topology").uniform(0.0, 1.0, size=(9, 2))
        np.testing.assert_array_equal(topo.positions, np.asarray(want).reshape(9, 2))

    def test_rows_and_mean_equal_numpy_for_every_size_to_130(self):
        for n in range(1, 131):
            topo = make_topology(n=n, seed=n)
            delays = self.numpy_delays(topo)
            assert topo.delay_rows == delays.tolist(), n
            # numpy's pairwise summation, not a sequential sum
            want = float(delays.sum() / (n * (n - 1))) if n >= 2 else 0.0
            assert topo.mean_delay() == want, n
