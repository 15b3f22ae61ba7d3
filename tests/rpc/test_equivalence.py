"""Same-seed equivalence: default-off knobs leave the simulation alone.

Every opt-in layer (rpc batching/cache, payload plane, profiler,
sanitizer, schedule controller) promises that its default leaves the
protocol timeline of a seeded cell exactly where it was.  The pins
below are that timeline's protocol-observable digest: commits, root
aborts, messages sent, nested aborts (own / parent-caused) and the
``repr`` of the mean commit latency — a float that any shifted grant,
reordered tie or extra message moves in its last digits.  One sha256 of
the obs JSONL of the 12-node bank cell is the timeline-level referee:
every span edge, scheduler decision and ownership move, with its
simulated timestamp.

The raw kernel event count (``sim_events``) used to be part of these
pins.  It is not any more: how many kernel events the simulator spends
delivering a message is an implementation cost, not behaviour — the
callback-chained inbox server cut it from ~3.8 to 2 per message without
moving one timestamp — and a pin on it only forbids making the
simulator cheaper.  ``sim_events`` equality is still asserted where two
runs of the *same* build are compared (the pass-through controller
below, tests/rpc/test_batch.py, tests/check/test_sanitizer.py).

The values were recorded at commit 3cd653f, the last build with the
Process-per-burst inbox server, and hold unchanged after it.  If a
change legitimately alters the schedule (a new message, a protocol
fix), re-record the pins in the same commit and say why in its message.
"""

import hashlib
import itertools

import pytest

from repro.core import ClusterConfig, SchedulerKind
from repro.core.config import (
    CheckConfig, ObsConfig, PayloadConfig, ProfConfig, RpcConfig,
)
from repro.core.experiment import run_experiment

# (workload, num_nodes, seed) -> (commits, root_aborts, messages_sent,
#   nested_aborts_own, nested_aborts_parent, repr(mean_commit_latency))
PINS = {
    ("bank", 12, 1): (256, 129, 12786, 0, 41, "0.5644360896447559"),
    ("dht", 6, 3): (515, 23, 4508, 0, 14, "0.18009295952624713"),
}

#: sha256 of the obs JSONL of the ("bank", 12, 1) cell, global id
#: counters reset first (same commit as PINS)
OBS_JSONL_SHA256 = (
    "363b655263277ce70d81ec2755189d43864403c1073be52443aa70bb49b1eb61"
)


def digest(result):
    """The protocol-observable fields of a result, in PINS order."""
    return (
        result.commits, result.root_aborts, result.messages_sent,
        result.nested_aborts_own, result.nested_aborts_parent,
        repr(result.mean_commit_latency),
    )


def run_cell(workload, num_nodes, seed, **kwargs):
    cfg = ClusterConfig(
        num_nodes=num_nodes, seed=seed,
        scheduler=SchedulerKind.RTS, cl_threshold=4, **kwargs,
    )
    return run_experiment(workload, cfg, read_fraction=0.9,
                          workers_per_node=2, horizon=8.0)


@pytest.mark.parametrize("cell", sorted(PINS), ids=lambda c: f"{c[0]}-n{c[1]}")
def test_default_config_matches_pre_substrate_pin(cell):
    result = run_cell(*cell)
    assert digest(result) == PINS[cell]


def test_obs_timeline_matches_the_recorded_sha(tmp_path):
    """The timeline-level referee: every obs event of the 12-node bank
    cell, timestamps included, is byte-for-byte what the recorded build
    exported — and watching does not move the digest."""
    import repro.dstm.transaction as tx_module
    from repro.net.message import reset_msg_ids

    # exports embed the process-global transaction and message ids
    tx_module.Transaction._ids = itertools.count(1)
    reset_msg_ids()
    cell = ("bank", 12, 1)
    path = tmp_path / "obs.jsonl"
    result = run_cell(*cell, obs=ObsConfig(enabled=True, jsonl_path=str(path)))
    assert digest(result) == PINS[cell]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OBS_JSONL_SHA256


def test_explicit_zero_config_is_the_default():
    """batch_window=0.0 + cache=False spelled out must equal the default
    path bit-for-bit — the knobs are strictly additive."""
    cell = ("dht", 6, 3)
    explicit = run_cell(*cell, rpc=RpcConfig(batch_window=0.0, cache=False))
    assert digest(explicit) == PINS[cell]
    assert explicit.messages_sent > 0
    assert "rpc_batches" not in explicit.extra
    assert "rpc_cache_hits" not in explicit.extra


@pytest.mark.parametrize(
    "prof",
    [ProfConfig(enabled=False), ProfConfig(enabled=True)],
    ids=["off", "counters"],
)
def test_prof_config_preserves_the_pin(prof):
    """ProfConfig is strictly additive in *both* states: enabled=False
    installs no profiler (the run loop pays one is-not-None guard), and
    counters mode only tallies callback dispatches — it never touches
    the schedule, so the committed timeline is still the pin."""
    cell = ("dht", 6, 3)
    result = run_cell(*cell, prof=prof)
    assert digest(result) == PINS[cell]
    if prof.enabled:
        snap = result.extra["prof"]
        # every processed kernel event was attributed
        assert snap["events"] == result.sim_events
        assert snap["mode"] == "counters"
    else:
        assert "prof" not in result.extra


def test_payload_config_off_preserves_the_pin():
    """PayloadConfig(enabled=False) — the default, spelled out — builds
    no plane and no wire-cost model, so the committed timeline is still
    the pin bit-for-bit and no payload keys leak into extras."""
    cell = ("dht", 6, 3)
    result = run_cell(*cell, payload=PayloadConfig(enabled=False))
    assert digest(result) == PINS[cell]
    assert "payload_mode" not in result.extra
    assert "payload_bytes_on_wire" not in result.extra


@pytest.mark.parametrize("sanitize", [False, True], ids=["off", "on"])
def test_check_config_preserves_the_pin(sanitize):
    """CheckConfig is strictly additive in *both* states: sanitize=False
    builds no sanitizer (byte-identical by construction), and
    sanitize=True only observes — the sanitizer draws no randomness and
    sends no messages, so the committed timeline is still the pin."""
    cell = ("dht", 6, 3)
    result = run_cell(*cell, check=CheckConfig(sanitize=sanitize))
    assert digest(result) == PINS[cell]


def test_default_controller_is_off_and_pin_holds():
    """The ScheduleController hook defaults to None — the pinned cells
    above already run without it (one is-not-None guard in run()), and
    the slot really is unset on a fresh environment."""
    from repro.core.cluster import Cluster

    assert Cluster(ClusterConfig(num_nodes=2)).env.controller is None
    # The PINS parametrization is the byte-identity evidence; this cell
    # re-checks one of them explicitly next to the controller assertion.
    cell = ("dht", 6, 3)
    result = run_cell(*cell)
    assert digest(result) == PINS[cell]


def test_passthrough_controller_is_byte_identical():
    """A controller that always returns 0 must reproduce the
    uncontrolled schedule event-for-event — the explorer's soundness
    rests on the controlled loop being a faithful copy of run()."""
    from repro.core.cluster import Cluster
    from repro.dstm.transaction import Transaction
    from repro.sim import ScheduleController

    def run_once(controller):
        Transaction._ids = itertools.count(1)
        cluster = Cluster(ClusterConfig(
            num_nodes=4, seed=2, scheduler=SchedulerKind.RTS, cl_threshold=4,
        ))
        for i in range(3):
            cluster.alloc(f"o{i}", 0, node=i % 4)
        results = []

        def body(tx, oid):
            value = yield from tx.read(oid)
            yield from tx.compute(0.01)
            yield from tx.write(oid, value + 1)
            return value

        def driver(k):
            yield cluster.env.timeout(0.001 * k)
            value = yield from cluster.atomic(
                body, f"o{k % 3}", node=k % 4, profile="eq"
            )
            results.append((k, value))

        for k in range(6):
            cluster.spawn(driver(k), name=f"tx@{k % 4}")
        cluster.env.controller = controller
        cluster.env.run()
        return (cluster.env.events_processed, cluster.env.now, sorted(results))

    assert run_once(ScheduleController()) == run_once(None)
