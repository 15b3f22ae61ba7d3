"""Unit tests for the cluster configuration."""

import dataclasses

import pytest

from repro.core.config import (
    ArrivalConfig,
    ClusterConfig,
    ObsConfig,
    PayloadConfig,
    ProfConfig,
    SchedulerKind,
)
from repro.dstm.transaction import NestingModel


class TestValidation:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.num_nodes >= 1
        assert cfg.scheduler is SchedulerKind.RTS

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)

    def test_bad_delay_band_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(min_link_delay=0.1, max_link_delay=0.01)
        with pytest.raises(ValueError):
            ClusterConfig(min_link_delay=0.0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(cl_threshold=0)

    def test_bad_conflict_scope_rejected_at_construction(self):
        with pytest.raises(ValueError, match="conflict_scope.*'bogus'"):
            ClusterConfig(conflict_scope="bogus")

    def test_bad_conflict_scope_rejected_at_cluster(self):
        from repro.core.cluster import Cluster

        with pytest.raises(ValueError):
            Cluster(ClusterConfig(num_nodes=2, conflict_scope="bogus"))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_eager_payload_mode_is_refused(self, enabled):
        """Payloads move as ObjectProxy descriptors only: ``proxy`` has
        one accepted value, as ``ArrivalConfig.process`` has."""
        with pytest.raises(ValueError, match="proxy must be True"):
            PayloadConfig(enabled=enabled, proxy=False)
        assert PayloadConfig(enabled=True).proxy is True

    @pytest.mark.parametrize("name", ["burst_factor", "scenario", "shed_policy"])
    def test_removed_arrival_field_is_unknown(self, name):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            ClusterConfig(num_nodes=2, arrival={"enabled": True, name: 1})


#: case id -> (ClusterConfig kwargs, the field the error names): each is
#: a setting a disabled subsystem would silently ignore
IGNORED_SETTINGS = {
    "obs.jsonl_path": (dict(obs=dict(jsonl_path="run.jsonl")), "jsonl_path"),
    "prof.wall": (dict(prof=dict(wall=True)), "wall"),
    "prof.folded_path": (dict(prof=dict(folded_path="run.folded")), "folded_path"),
    "trace_categories": (dict(trace_categories=("txn",)), "trace_categories"),
    "arrival.zipf_s": (dict(arrival=dict(zipf_s=1.2)), "zipf_s"),
    "payload.size": (dict(payload=dict(size=1024)), "size"),
}

#: a legal non-default value for every field (but ``enabled`` and the
#: single-valued ones) of each sub-config whose disabled form refuses them all
NON_DEFAULTS = {
    ObsConfig: dict(jsonl_path="run.jsonl"),
    ProfConfig: dict(wall=True, folded_path="run.folded"),
    ArrivalConfig: dict(rate=5.0, zipf_s=1.2, queue_capacity=8),
    PayloadConfig: dict(size=1024),
}

#: fields whose one legal value is the default, so there is nothing to refuse
SINGLE_VALUED = {"process", "proxy"}


class TestIgnoredSettingsRejected:
    @pytest.mark.parametrize(
        "kwargs,field", IGNORED_SETTINGS.values(), ids=IGNORED_SETTINGS.keys()
    )
    def test_rejected_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ClusterConfig(num_nodes=2, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(obs=dict(enabled=True, jsonl_path="run.jsonl")),
            dict(prof=dict(enabled=True, wall=True, folded_path="run.folded")),
            dict(trace=True, trace_categories=("txn",)),
            dict(obs=dict(enabled=True), trace_categories=("txn",)),
        ],
        ids=["obs", "prof", "trace", "obs-categories"],
    )
    def test_same_settings_accepted_when_enabled(self, kwargs):
        ClusterConfig(num_nodes=2, **kwargs)

    @pytest.mark.parametrize("cls", NON_DEFAULTS, ids=lambda c: c.__name__)
    def test_table_covers_every_field(self, cls):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(NON_DEFAULTS[cls]) == fields - {"enabled"} - SINGLE_VALUED

    @pytest.mark.parametrize(
        "cls,name",
        [(cls, name) for cls, values in NON_DEFAULTS.items() for name in values],
        ids=lambda p: p if isinstance(p, str) else p.__name__,
    )
    def test_disabled_refuses_every_field(self, cls, name):
        with pytest.raises(ValueError, match=f"{name} is set"):
            cls(**{name: NON_DEFAULTS[cls][name]})

    @pytest.mark.parametrize("cls", NON_DEFAULTS, ids=lambda c: c.__name__)
    def test_enabled_accepts_every_field(self, cls):
        cls(enabled=True, **NON_DEFAULTS[cls])


class TestCoercion:
    def test_string_scheduler(self):
        assert ClusterConfig(scheduler="tfa").scheduler is SchedulerKind.TFA

    def test_string_nesting(self):
        assert ClusterConfig(nesting="flat").nesting is NestingModel.FLAT


class TestReplace:
    def test_replace_creates_modified_copy(self):
        base = ClusterConfig(num_nodes=4, seed=1)
        other = base.replace(seed=2)
        assert other.seed == 2
        assert other.num_nodes == 4
        assert base.seed == 1

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            ClusterConfig().replace(num_nodes=-1)

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            ClusterConfig().seed = 99
