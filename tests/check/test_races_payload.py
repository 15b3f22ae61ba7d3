"""Race detector vs. the payload plane (DESIGN §3i + §3e).

Proxy mode moves grant values off the control plane: a grant carries an
``ObjectProxy`` descriptor and the bulk bytes arrive later, through an
out-of-band ``PAYLOAD_FETCH`` exchange.  That reshapes the trace the
race detector replays — fetch round-trips interleave between the
acquisition events whose ordering the detector reconstructs.  This test
pins that the happens-before model stays sound under the split: a
read-mostly proxy cell exports an obs trace that really contains
``payload.fetch`` traffic, and the detector finds zero races in it (no
false positives from the extra plane)."""

import pytest

from repro.check.races import detect_races
from repro.core.config import ClusterConfig
from repro.core.experiment import run_experiment
from repro.obs.report import load_events

# A read-mostly bank cell, so most grants are copies whose bytes
# resolve by fetch, at a short horizon.
PAYLOAD_WORKLOAD = "bank"
PAYLOAD_READ_FRACTION = 0.9
PAYLOAD_NODES = 8
SMOKE_HORIZON = 2.0
SMOKE_SIZES = (1_024, 1_048_576)


def _export_proxy_trace(tmp_path, size):
    path = tmp_path / f"payload-proxy-{size}.jsonl"
    cfg = ClusterConfig(
        num_nodes=PAYLOAD_NODES, seed=7, scheduler="rts", cl_threshold=4,
        payload=dict(enabled=True, proxy=True, size=int(size)),
        obs=dict(enabled=True, jsonl_path=str(path)),
    )
    result = run_experiment(PAYLOAD_WORKLOAD, cfg,
                            read_fraction=PAYLOAD_READ_FRACTION,
                            workers_per_node=2, horizon=SMOKE_HORIZON)
    assert result.commits > 10
    return list(load_events(str(path)))


@pytest.mark.parametrize("size", SMOKE_SIZES, ids=["1KiB", "1MiB"])
def test_proxy_mode_smoke_trace_has_no_false_positive_races(tmp_path, size):
    events = _export_proxy_trace(tmp_path, size)
    # The cell genuinely exercised the payload plane ...
    fetches = [e for e in events if e.get("cat") == "payload.fetch"]
    assert fetches, "proxy-mode smoke run must issue PAYLOAD_FETCH traffic"
    # ... and the detector still orders every conflicting acquisition.
    out, races = detect_races(events)
    assert out.edges > 0
    assert len(out.accesses) > 0, "trace must contain acquisitions"
    assert races == [], (
        "payload.fetch round-trips must not break the migration-chain "
        f"happens-before model: {[r.render() for r in races]}"
    )
