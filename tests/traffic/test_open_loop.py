"""OpenLoopExecutor end-to-end: additivity pin, determinism, accounting."""

import pytest

from repro.core import ArrivalConfig, ClusterConfig, SchedulerKind
from repro.core.experiment import ExperimentResult, run_experiment
from tests.rpc.test_equivalence import PINS, digest

#: the closed-loop pin from tests/rpc/test_equivalence.py — re-asserted
#: here because the traffic layer touched the workload draw paths: with
#: arrival.enabled=False the draws must stay byte-identical
CLOSED_LOOP_CELL = ("dht", 6, 3)


def _config(seed=1, nodes=4, **arrival_kwargs):
    arrival_kwargs.setdefault("rate", 10.0)
    arrival = ArrivalConfig(enabled=True, **arrival_kwargs)
    return ClusterConfig(num_nodes=nodes, seed=seed,
                         scheduler=SchedulerKind.RTS, cl_threshold=4,
                         arrival=arrival)


def _run(config, workload="bank", read_fraction=0.5, horizon=6.0):
    return run_experiment(workload, config, read_fraction=read_fraction,
                          workers_per_node=2, horizon=horizon)


class TestClosedLoopUnchanged:
    def test_disabled_arrival_preserves_the_pin(self):
        """ArrivalConfig(enabled=False) — the default — must leave the
        closed-loop path byte-identical: the protocol-observable digest
        of the pre-traffic pin."""
        workload, nodes, seed = CLOSED_LOOP_CELL
        cfg = ClusterConfig(num_nodes=nodes, seed=seed,
                            scheduler=SchedulerKind.RTS, cl_threshold=4)
        r = run_experiment(workload, cfg, read_fraction=0.9,
                           workers_per_node=2, horizon=8.0)
        assert digest(r) == PINS[CLOSED_LOOP_CELL]

    def test_explicit_disabled_is_the_default(self):
        workload, nodes, seed = CLOSED_LOOP_CELL
        cfg = ClusterConfig(num_nodes=nodes, seed=seed,
                            scheduler=SchedulerKind.RTS, cl_threshold=4,
                            arrival=ArrivalConfig(enabled=False))
        r = run_experiment(workload, cfg, read_fraction=0.9,
                           workers_per_node=2, horizon=8.0)
        assert digest(r) == PINS[CLOSED_LOOP_CELL]
        # ... and no open-loop extras leak into a closed-loop result
        assert "offered_rate" not in r.extra
        assert "stable" not in r.extra


class TestOpenLoopRun:
    def test_extras_present_and_consistent(self):
        r = _run(_config())
        x = r.extra
        assert x["offered"] == x["admitted"] + x["shed"]
        assert x["offered_rate"] == pytest.approx(x["offered"] / 6.0)
        assert isinstance(x["stable"], bool)
        assert x["stability"]["reason"]
        assert r.commits > 0
        assert 0 <= r.commits <= x["admitted"]

    def test_same_seed_byte_identical(self):
        a = _run(_config(seed=5))
        b = _run(_config(seed=5))
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = _run(_config(seed=5))
        b = _run(_config(seed=6))
        assert a.extra["offered"] != b.extra["offered"] or a.commits != b.commits

    def test_overload_sheds_and_diverges(self):
        r = _run(_config(rate=200.0, queue_capacity=8), read_fraction=0.2)
        x = r.extra
        assert x["shed"] > 0
        assert x["stable"] is False
        assert x["offered"] == x["admitted"] + x["shed"]

    def test_stop_after_commits_rejected(self):
        with pytest.raises(ValueError, match="closed-loop stop condition"):
            run_experiment("bank", _config(), read_fraction=0.5,
                           workers_per_node=2, horizon=6.0,
                           stop_after_commits=10)

    def test_open_loop_requires_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            run_experiment("bank", _config(), read_fraction=0.5,
                           workers_per_node=2, horizon=None)


class TestResultRoundTrip:
    def test_serving_extras_round_trip(self):
        """to_dict -> from_dict preserves the open-loop extras exactly
        (the contract repro.par's cell cache relies on)."""
        r = _run(_config(zipf_s=1.1))
        restored = ExperimentResult.from_dict(r.to_dict())
        assert restored.extra == r.extra
        assert restored.to_dict() == r.to_dict()
        assert isinstance(restored.extra["stable"], bool)

    def test_row_renders_serving_extras(self):
        r = _run(_config())
        row = r.row()
        assert row["stable"] in (True, False)
        assert isinstance(row["offered_rate"], float)
        assert row["shed"] == r.extra["shed"]
