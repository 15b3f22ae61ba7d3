"""Trace-replay race detector: hand-built traces with known answers,
the CLI, and end-to-end validation of clean + chaos obs exports."""

import json

from repro.check.races import detect_races, main, replay
from repro.core.config import ClusterConfig, FaultConfig
from repro.core.experiment import run_experiment
from repro.obs.report import load_events


def grant(t, oid, node, version, served_by, mode="a"):
    return {
        "t": t, "cat": "dstm.grant", "sub": oid,
        "txid": f"task-n{node}-{int(t * 100)}",
        "mode": mode, "version": version, "served_by": served_by,
    }


class TestHandBuiltTraces:
    def test_unordered_conflicting_pair_is_flagged(self):
        # Two nodes acquire the same object version with no
        # happens-before path between them: a forked writable copy.
        events = [
            grant(0.10, "obj", node=1, version=5, served_by=0),
            grant(0.20, "obj", node=2, version=5, served_by=0),
        ]
        out, races = detect_races(events)
        assert len(out.accesses) == 2
        assert [r.rule for r in races] == ["race-unordered-write"]
        assert races[0].oid == "obj"
        assert {races[0].first.node, races[0].second.node} == {1, 2}

    def test_migration_chain_orders_the_pair(self):
        # The second acquisition is served by the first acquirer: the
        # grant edge joins its clock, so the pair is ordered — no race.
        events = [
            grant(0.10, "obj", node=1, version=5, served_by=0),
            grant(0.20, "obj", node=2, version=5, served_by=1),
        ]
        out, races = detect_races(events)
        assert out.edges == 1
        assert races == []

    def test_rpc_reply_edge_orders_nodes(self):
        # An ok rpc.done joins the caller's clock with the callee's; the
        # later acquisition at the caller is then ordered after the
        # callee's acquisition.
        events = [
            grant(0.10, "obj", node=1, version=5, served_by=0),
            {"t": 0.15, "cat": "rpc.done", "sub": "retrieve",
             "node": "n2", "dst": 1, "ok": True, "retries": 0},
            grant(0.20, "obj", node=2, version=5, served_by=0),
        ]
        _, races = detect_races(events)
        assert races == []

    def test_different_versions_do_not_conflict(self):
        events = [
            grant(0.10, "obj", node=1, version=5, served_by=0),
            grant(0.20, "obj", node=2, version=6, served_by=0),
        ]
        _, races = detect_races(events)
        assert races == []

    def test_strict_mode_flags_version_regression(self):
        events = [
            grant(0.10, "obj", node=1, version=5, served_by=0),
            grant(0.20, "obj", node=2, version=3, served_by=1),
        ]
        _, default_races = detect_races(events)
        assert default_races == []
        _, strict_races = detect_races(events, strict=True)
        assert [r.rule for r in strict_races] == ["race-version-regression"]

    def test_copy_mode_grants_are_not_accesses(self):
        events = [
            grant(0.10, "obj", node=1, version=5, served_by=0, mode="r"),
            grant(0.20, "obj", node=2, version=5, served_by=0, mode="w"),
        ]
        out, races = detect_races(events)
        assert out.accesses == [] and races == []

    def test_unattributable_events_are_skipped(self):
        out = replay([{"t": 0.1, "cat": "sim.note", "sub": "x"}])
        assert out.events == 1 and out.attributed == 0


class TestCli:
    def write_trace(self, path, events):
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return str(path)

    def test_racy_trace_exits_nonzero(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path / "racy.jsonl", [
            grant(0.10, "obj", node=1, version=5, served_by=0),
            grant(0.20, "obj", node=2, version=5, served_by=0),
        ])
        assert main([trace]) == 1
        out = capsys.readouterr().out
        assert "race-unordered-write" in out

    def test_clean_trace_exits_zero_with_json_report(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path / "clean.jsonl", [
            grant(0.10, "obj", node=1, version=5, served_by=0),
            grant(0.20, "obj", node=2, version=5, served_by=1),
        ])
        assert main([trace, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["acquisitions"] == 2

    def test_bad_json_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"t": 0.1, "cat": "c", "sub": "s"}\nnot-json\n')
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}:2: invalid JSON" in err


class TestRealTraces:
    """End-to-end: detector vs. actual obs exports."""

    def export_trace(self, tmp_path, name, **config_kw):
        path = tmp_path / name
        cfg = ClusterConfig(
            num_nodes=4, seed=5, scheduler="rts", cl_threshold=4,
            obs=dict(enabled=True, jsonl_path=str(path)),
            **config_kw,
        )
        result = run_experiment("bank", cfg, read_fraction=0.5,
                                workers_per_node=2, horizon=4.0)
        assert result.commits > 10
        return str(path)

    def test_clean_smoke_trace_has_no_races(self, tmp_path):
        trace = self.export_trace(tmp_path, "clean.jsonl")
        out, races = detect_races(load_events(trace))
        assert out.events > 0 and out.edges > 0
        assert len(out.accesses) > 0, "trace must contain acquisitions"
        assert races == []

    def test_chaos_smoke_trace_has_no_races(self, tmp_path):
        # The CI criterion: the bench_chaos regime's trace validates.
        chaos = FaultConfig(
            enabled=True, drop_rate=0.05, duplicate_rate=0.02,
            extra_delay_rate=0.05, extra_delay_max=0.02,
        )
        trace = self.export_trace(tmp_path, "chaos.jsonl", faults=chaos)
        out, races = detect_races(load_events(trace))
        assert len(out.accesses) > 0
        assert races == []
