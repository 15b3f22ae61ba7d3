"""ExperimentResult: table-row formatting and dict round-tripping."""

import json

from repro.core.experiment import ExperimentResult


def make_result(**overrides):
    base = dict(
        workload="bank", scheduler="rts", num_nodes=8, read_fraction=0.9,
        seed=1, horizon=8.0, commits=100, root_aborts=10,
        throughput=12.3456789, abort_ratio=0.09090909,
        nested_abort_rate=0.12345678, nested_aborts_own=3,
        nested_aborts_parent=4, mean_commit_latency=0.0123456,
        messages_sent=5000, sim_events=60000,
        extra={"abandoned": 2},
    )
    base.update(overrides)
    return ExperimentResult(**base)


class TestRowFormatting:
    def test_named_floats_rounded(self):
        row = make_result().row()
        assert row["throughput"] == 12.35
        assert row["abort_ratio"] == 0.0909
        assert row["nested_abort_rate"] == 0.1235

    def test_extra_floats_rounded_like_named_metrics(self):
        """The satellite fix: extra used to pass through unrounded,
        making otherwise-identical tables diff noisily."""
        row = make_result(extra={
            "rpc_mean_batch": 1.23456789,
            "rpc_cache_hit_rate": 0.987654321,
        }).row()
        assert row["rpc_mean_batch"] == 1.2346
        assert row["rpc_cache_hit_rate"] == 0.9877

    def test_extra_rounding_recurses_into_containers(self):
        row = make_result(extra={
            "obs": {"mean_span": 0.123456789, "counts": [1, 2.345678901]},
        }).row()
        assert row["obs"] == {"mean_span": 0.1235, "counts": [1, 2.3457]}

    def test_extra_non_floats_untouched(self):
        row = make_result(extra={"abandoned": 2, "note": "x"}).row()
        assert row["abandoned"] == 2 and row["note"] == "x"


#: the extras an open-loop (repro.traffic) run attaches
SERVING_EXTRA = {
    "abandoned": 0,
    "offered": 318,
    "offered_rate": 39.7512345,
    "admitted": 305,
    "shed": 13,
    "shed_rate": 0.04088050,
    "backlog": 244,
    "stable": False,
    "stability": {"stable": False, "reason": "divergent",
                  "head_depth": 66.5365258, "tail_depth": 187.1317554,
                  "shed_rate": 0.04088050},
    "queue_depth_windows": [12.381226, 52.874826],
    "latency_p99": 7.9086581,
}


class TestServingExtras:
    def test_row_keeps_stable_as_bool(self):
        """row() rounds floats but must not mangle the stability verdict
        (bool is an int subclass — an easy casualty of naive rounding)."""
        row = make_result(extra=dict(SERVING_EXTRA)).row()
        assert row["stable"] is False
        assert row["stability"]["stable"] is False
        assert row["offered"] == 318

    def test_row_rounds_serving_floats(self):
        row = make_result(extra=dict(SERVING_EXTRA)).row()
        assert row["offered_rate"] == 39.7512
        assert row["shed_rate"] == 0.0409
        assert row["stability"]["tail_depth"] == 187.1318
        assert row["queue_depth_windows"] == [12.3812, 52.8748]

    def test_serving_round_trip_is_exact(self):
        result = make_result(extra=dict(SERVING_EXTRA))
        restored = ExperimentResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.extra["offered_rate"] == 39.7512345
        assert restored.extra["stable"] is False

    def test_serving_json_round_trip(self):
        """Through JSON (the repro.par cache's encoding) the verdict and
        counters survive exactly."""
        result = make_result(extra=dict(SERVING_EXTRA))
        data = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(data)
        assert restored.extra == result.extra


#: the extras a payload-plane (repro.rpc.payload) run attaches
PAYLOAD_EXTRA = {
    "abandoned": 0,
    "payload_bytes_on_wire": 195_051_584,
    "control_bytes_on_wire": 483_072,
    "grant_bytes_on_wire": 16_448,
    "payload_fetch_bytes": 195_035_136,
    "payload_fetches": 186,
    "payload_cache_hits": 92,
    "payload_cache_hit_rate": 0.33093525,
}


class TestPayloadExtras:
    def test_row_rounds_hit_rate_keeps_counters(self):
        row = make_result(extra=dict(PAYLOAD_EXTRA)).row()
        assert row["payload_cache_hit_rate"] == 0.3309
        assert row["payload_bytes_on_wire"] == 195_051_584
        assert row["grant_bytes_on_wire"] == 16_448

    def test_payload_round_trip_is_exact(self):
        result = make_result(extra=dict(PAYLOAD_EXTRA))
        restored = ExperimentResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.extra["payload_cache_hit_rate"] == 0.33093525

    def test_payload_json_round_trip(self):
        """Through JSON (the repro.par cache's encoding) the byte
        counters and hit rate survive exactly."""
        result = make_result(extra=dict(PAYLOAD_EXTRA))
        data = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(data)
        assert restored.extra == result.extra
        assert isinstance(restored.extra["payload_fetches"], int)


class TestDictRoundTrip:
    def test_to_dict_from_dict_identity(self):
        result = make_result(extra={"abandoned": 2, "rpc_cache_hits": 7})
        assert ExperimentResult.from_dict(result.to_dict()) == result

    def test_to_dict_is_exact(self):
        """The cache stores exact values; only row() rounds."""
        result = make_result()
        assert result.to_dict()["throughput"] == 12.3456789

    def test_json_round_trip_preserves_floats(self):
        result = make_result()
        data = json.loads(json.dumps(result.to_dict()))
        assert ExperimentResult.from_dict(data) == result
