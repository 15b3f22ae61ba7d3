"""Tests for the run-report CLI (python -m repro.obs.report)."""

import json

import pytest

from repro.core.config import ClusterConfig, ObsConfig
from repro.core.experiment import run_experiment
from repro.obs.report import load_events, main, render, summarize
from repro.obs.events import SchemaError


@pytest.fixture(scope="module")
def run_log(tmp_path_factory):
    """One faulted traced run shared by every report test."""
    path = tmp_path_factory.mktemp("obs") / "run.jsonl"
    cfg = ClusterConfig(
        num_nodes=4, seed=11,
        obs=ObsConfig(enabled=True, jsonl_path=str(path)),
        faults=dict(enabled=True, drop_rate=0.02, crash_rate=0.05),
    )
    result = run_experiment("bank", cfg, horizon=3.0)
    assert result.commits > 0
    return path


class TestSummarize:
    def test_summary_shape(self, run_log):
        summary = summarize(load_events(str(run_log)))
        assert summary["events"] > 0 and summary["spans"] > 0
        assert summary["nodes"] and summary["phases"]
        commits = sum(r["commits"] for r in summary["nodes"])
        assert commits > 0
        assert "span.commit" in summary["phases"]
        row = summary["phases"]["span.commit"]
        assert row["p50"] <= row["p95"] <= row["p99"]
        assert summary["faults"], "fault regime must leave a timeline"

    def test_render_sections(self, run_log):
        summary = summarize(load_events(str(run_log)))
        text = render(summary)
        for section in ("## per-node", "## top contended objects",
                        "## span phases (ms)", "## scheduler decisions",
                        "## fault timeline"):
            assert section in text, f"missing {section}"

    def test_bad_json_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "cat": "x", "sub": "y"}\nnot json\n')
        with pytest.raises(SchemaError):
            list(load_events(str(path)))


@pytest.fixture(scope="module")
def serving_log(tmp_path_factory):
    """One open-loop traced run: traffic.* events feed the report."""
    from repro.core.config import ArrivalConfig

    path = tmp_path_factory.mktemp("obs") / "serving.jsonl"
    cfg = ClusterConfig(
        num_nodes=4, seed=7,
        obs=ObsConfig(enabled=True, jsonl_path=str(path)),
        arrival=ArrivalConfig(enabled=True, rate=20.0),
    )
    result = run_experiment("bank", cfg, read_fraction=0.5,
                            workers_per_node=2, horizon=4.0)
    assert result.extra["offered"] > 0
    return path


class TestOpenLoopSection:
    def test_closed_loop_report_has_no_traffic_section(self, run_log):
        summary = summarize(load_events(str(run_log)))
        assert "traffic" not in summary
        assert "## open-loop traffic" not in render(summary)

    def test_traffic_section_renders(self, serving_log):
        summary = summarize(load_events(str(serving_log)))
        traffic = summary["traffic"]
        assert traffic["offered"] == traffic["admitted"] + traffic["shed"]
        text = render(summary)
        assert "## open-loop traffic" in text
        assert "offered" in text and "shed" in text

    def test_render_is_byte_deterministic(self, serving_log):
        """Two independent load->summarize->render passes over the same
        log must produce identical bytes (tables, the traffic section,
        and the repro.prof anatomy/wasted sections included) — the
        contract that makes reports diffable."""
        first = render(summarize(load_events(str(serving_log))))
        assert "## latency anatomy" in first
        assert "## wasted work" in first
        second = render(summarize(load_events(str(serving_log))))
        assert first.encode() == second.encode()


class TestProfSections:
    def test_open_loop_summary_carries_anatomy_and_wasted(self, serving_log):
        summary = summarize(load_events(str(serving_log)))
        anatomy = summary["anatomy"]
        assert anatomy["roots"] > 0
        assert anatomy["max_residual"] < 1e-9
        # open-loop linkage: traffic.dispatch stamps arrival times, so
        # some chains accrue admission wait
        text = render(summary)
        assert "## latency anatomy (committed roots)" in text
        for segment in ("admission", "queue", "network", "commit"):
            assert segment in text
        assert "## wasted work" in text
        assert "parent-caused cascade" in text

    def test_closed_loop_summary_has_anatomy_without_admission(self, run_log):
        """Closed-loop logs have spans but no traffic.dispatch events:
        chains are still decomposed, with a zero admission segment."""
        summary = summarize(load_events(str(run_log)))
        assert "traffic" not in summary
        anatomy = summary["anatomy"]
        assert anatomy["roots"] > 0
        assert anatomy["segments"]["admission"]["total"] == 0.0

    def test_spanless_log_keeps_old_summary_shape(self, tmp_path):
        path = tmp_path / "thin.jsonl"
        path.write_text(
            '{"t": 0.5, "cat": "tx.commit", "sub": "x", "node": "n0"}\n'
        )
        summary = summarize(load_events(str(path)))
        assert "anatomy" not in summary and "wasted" not in summary
        text = render(summary)
        assert "## latency anatomy" not in text
        assert "## wasted work" not in text


class TestCli:
    def test_main_renders_tables(self, run_log, capsys):
        assert main([str(run_log)]) == 0
        out = capsys.readouterr().out
        assert "## per-node" in out and "## scheduler decisions" in out

    def test_main_json_mode(self, run_log, capsys):
        assert main([str(run_log), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0

    def test_main_chrome_reexport(self, run_log, tmp_path, capsys):
        out_path = tmp_path / "re.trace.json"
        assert main([str(run_log), "--chrome", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_main_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cat": "x", "sub": "y"}\n')  # missing t
        assert main([str(path)]) == 1
        assert "schema error" in capsys.readouterr().err

    def test_schema_invalid_span_event_is_one_error_line(self, tmp_path, capsys):
        """A span.begin without its task is refused by the schema check
        before the span fold sees it: exit 1, one line, no traceback."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":1,"cat":"span.begin","sub":"x"}\n')
        assert main([str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("schema error:")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_max_fault_lines_flag(self, run_log, capsys):
        """The fault-timeline cutoff is a flag, not a constant: a tight
        limit truncates with an accounting note, a loose one shows all."""
        summary = summarize(load_events(str(run_log)))
        n_faults = len(summary["faults"])
        assert n_faults > 2, "fixture must produce a fault timeline"

        assert main([str(run_log), "--max-fault-lines", "2"]) == 0
        tight = capsys.readouterr().out
        shown = [l for l in tight.splitlines() if "fault." in l]
        assert len(shown) == 2
        assert f"... {n_faults - 2 + summary['faults_dropped']} more" in tight

        assert main([str(run_log), "--max-fault-lines", str(n_faults)]) == 0
        loose = capsys.readouterr().out
        shown = [l for l in loose.splitlines() if "fault." in l]
        assert len(shown) == n_faults

    def test_module_entrypoint(self, run_log):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", str(run_log), "--top", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "## per-node" in proc.stdout
