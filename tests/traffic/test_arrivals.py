"""Arrival processes: determinism and rate fidelity."""

import math

import numpy as np
import pytest

from repro.sim import RngRegistry
from repro.traffic import MmppProcess, PoissonProcess, make_process


def _stream(seed=7, name="traffic.arrivals[0]"):
    return RngRegistry(seed=seed).stream(name)


def _draw_times(process, n, rate=10.0):
    now, times = 0.0, []
    for _ in range(n):
        now += process.next_interval(now, rate)
        times.append(now)
    return times


class TestPoisson:
    def test_same_seed_same_stream(self):
        a = _draw_times(PoissonProcess(_stream()), 500)
        b = _draw_times(PoissonProcess(_stream()), 500)
        assert a == b  # byte identity, not mere closeness

    def test_different_seeds_differ(self):
        a = _draw_times(PoissonProcess(_stream(seed=1)), 50)
        b = _draw_times(PoissonProcess(_stream(seed=2)), 50)
        assert a != b

    def test_mean_rate(self):
        times = _draw_times(PoissonProcess(_stream()), 5000, rate=10.0)
        observed = len(times) / times[-1]
        assert observed == pytest.approx(10.0, rel=0.1)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonProcess(_stream()).next_interval(0.0, 0.0)


class TestMmpp:
    def test_same_seed_same_stream(self):
        a = _draw_times(MmppProcess(_stream(), burst_factor=6.0), 500)
        b = _draw_times(MmppProcess(_stream(), burst_factor=6.0), 500)
        assert a == b

    def test_long_run_rate_is_normalised(self):
        """The on/off modulation must average to the requested rate."""
        p = MmppProcess(_stream(), burst_factor=8.0)
        times = _draw_times(p, 20000, rate=20.0)
        observed = len(times) / times[-1]
        assert observed == pytest.approx(20.0, rel=0.1)

    def test_bursts_are_burstier_than_poisson(self):
        """Squared coefficient of variation of interarrivals > 1 (Poisson
        has exactly 1): the modulation adds variance."""
        p = MmppProcess(_stream(), burst_factor=10.0)
        times = np.array(_draw_times(p, 8000, rate=10.0))
        gaps = np.diff(times)
        scv = gaps.var() / gaps.mean() ** 2
        assert scv > 1.3

    @pytest.mark.parametrize("kwargs", [
        dict(burst_factor=0.5), dict(burst_factor=math.nan),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MmppProcess(_stream(), **kwargs)


class TestMakeProcess:
    def test_mmpp_takes_the_burst_factor(self):
        p = make_process("mmpp", _stream(), 6.0)
        assert isinstance(p, MmppProcess) and p.burst_factor == 6.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_process("uniform", _stream())

