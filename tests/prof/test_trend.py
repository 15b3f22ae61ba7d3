"""Perf-trajectory harness: schema, append/check CLI, legacy seeding."""

import json
import os

import pytest

from repro.prof.trend import (
    SCHEMA_VERSION,
    TrendError,
    append_row,
    check_history,
    head_sha,
    load_history,
    main,
    row_from_payload,
    seed_rows,
    validate_row,
)

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _row(bench="bench_kernel", date="2026-08-01", **metrics):
    return {
        "schema": SCHEMA_VERSION, "bench": bench, "date": date,
        "git_sha": "abc1234", "host": {"python": "3.11.7"},
        "metrics": metrics or {"eps": 100.0},
    }


class TestSchema:
    def test_valid_row_passes(self):
        validate_row(_row(eps=1))

    @pytest.mark.parametrize("mutate", [
        lambda r: r.pop("schema"),
        lambda r: r.update(schema=99),
        lambda r: r.pop("bench"),
        lambda r: r.pop("date"),
        lambda r: r.update(metrics={}),
        lambda r: r.update(metrics={"eps": "fast"}),
        lambda r: r.update(metrics={"ok": True}),
        lambda r: r.update(host="laptop"),
    ])
    def test_bad_rows_rejected(self, mutate):
        row = _row()
        mutate(row)
        with pytest.raises(TrendError):
            validate_row(row)

    def test_payload_from_bench_kernel_shape(self):
        payload = {
            "bench": "bench_kernel", "date": "2026-08-08",
            "git_sha": "deadbee", "host": {"python": "3.11.7"},
            "procs": 50, "events": 120000,
            "events_per_sec": {"timeout-chain": 250000},
        }
        row = row_from_payload(payload)
        assert row["metrics"] == {"timeout-chain": 250000}
        assert row["bench"] == "bench_kernel"
        with pytest.raises(TrendError):
            row_from_payload({"procs": 1})


class TestHistoryFile:
    def test_append_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        append_row(path, _row(eps=1))
        append_row(path, _row(date="2026-08-02", eps=2))
        rows = load_history(path)
        assert [r["metrics"]["eps"] for r in rows] == [1, 2]
        assert load_history(str(tmp_path / "missing.jsonl")) == []

    def test_append_is_canonical_json(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        append_row(path, _row(eps=1))
        line = open(path).read()
        assert line == json.dumps(
            _row(eps=1), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_invalid_line_is_located(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"schema": 1}\n')
        with pytest.raises(TrendError, match=":1:"):
            load_history(str(path))


class TestCheck:
    def test_floor_pass_and_fail(self):
        rows = [_row(eps=100)]
        ok, msgs = check_history(rows, "bench_kernel", floor=50)
        assert ok and any("ok eps" in m for m in msgs)
        ok, msgs = check_history(rows, "bench_kernel", floor=200)
        assert not ok and any("FAIL eps" in m for m in msgs)

    def test_regression_vs_best_previous(self):
        rows = [_row(eps=100), _row(date="2026-08-02", eps=65)]
        ok, _ = check_history(rows, "bench_kernel", regress_pct=20)
        assert not ok  # 35% below the best previous row
        rows = [_row(eps=100), _row(date="2026-08-02", eps=90)]
        ok, _ = check_history(rows, "bench_kernel", regress_pct=20)
        assert ok

    def test_direction_lower_for_wall_clock(self):
        rows = [_row(bench="fig4_sweep", secs=3.0),
                _row(bench="fig4_sweep", date="2026-08-02", secs=4.5)]
        ok, _ = check_history(rows, "fig4_sweep", regress_pct=20,
                              direction="lower")
        assert not ok  # 50% slower
        ok, _ = check_history(rows, "fig4_sweep", floor=5.0,
                              direction="lower")
        assert ok  # latest 4.5 <= 5.0

    def test_no_baseline_is_ok_and_no_rows_fails(self):
        ok, msgs = check_history([_row(eps=1)], "bench_kernel",
                                 regress_pct=10)
        assert ok and any("baseline starts here" in m for m in msgs)
        ok, msgs = check_history([], "bench_kernel", floor=1)
        assert not ok

    def test_messages_deterministic(self):
        rows = [_row(a=1, b=2)]
        first = check_history(rows, "bench_kernel", floor=0)
        second = check_history(rows, "bench_kernel", floor=0)
        assert first == second


class TestSeedLegacyArtifacts:
    """The satellite: BENCH_PAR.json + BENCH_SERVING.json normalise into
    the trajectory schema (the repository's seeded BENCH_HISTORY.jsonl)."""

    def test_seed_rows_from_real_artifacts(self):
        with open(os.path.join(REPO, "BENCH_PAR.json")) as fh:
            par = json.load(fh)
        with open(os.path.join(REPO, "BENCH_SERVING.json")) as fh:
            serving = json.load(fh)
        rows = seed_rows(par=par, serving=serving, git_sha="4f658b6",
                         date="2026-08-05")
        benches = [r["bench"] for r in rows]
        assert benches == ["bench_kernel", "bench_kernel", "fig4_sweep",
                           "bench_serving"]
        for row in rows:
            validate_row(row)
        kernel_after = rows[1]["metrics"]
        assert kernel_after["timeout-chain"] == 661236
        assert rows[3]["metrics"]["max_rate_rts"] == 6.375
        assert rows[3]["metrics"]["max_rate_tfa"] == 5.75
        # host prose stripped, fingerprint kept
        assert "note" not in rows[0]["host"]

    def test_seed_rows_from_payload_artifact(self):
        payload = {
            "table": [
                {"mode": "eager", "size": 1_024,
                 "grant_bytes_per_commit": 6_300.0, "hit_rate": 0.0},
                {"mode": "proxy", "size": 1_024,
                 "grant_bytes_per_commit": 394.0, "hit_rate": 0.459},
                {"mode": "proxy", "size": 104_857_600,
                 "grant_bytes_per_commit": 380.0, "hit_rate": 0.224},
            ],
        }
        rows = seed_rows(payload=payload, git_sha="abc1234",
                         date="2026-08-08")
        assert [r["bench"] for r in rows] == ["bench_payload"]
        metrics = rows[0]["metrics"]
        assert metrics["grant_bpc_eager_1024"] == 6_300.0
        assert metrics["grant_bpc_proxy_104857600"] == 380.0
        assert metrics["hit_rate_proxy_1024"] == 0.459
        # eager rows contribute no hit-rate metric
        assert "hit_rate_eager_1024" not in metrics
        validate_row(rows[0])

    def test_seed_payload_from_checked_in_artifact(self):
        with open(os.path.join(REPO, "BENCH_PAYLOAD.json")) as fh:
            payload = json.load(fh)
        rows = seed_rows(payload=payload, date="2026-08-08")
        assert len(rows) == 1
        metrics = rows[0]["metrics"]
        # the headline: proxy flat, eager linear, across the size axis
        proxy = sorted(v for k, v in metrics.items()
                       if k.startswith("grant_bpc_proxy_"))
        eager = sorted(v for k, v in metrics.items()
                       if k.startswith("grant_bpc_eager_"))
        assert proxy and eager
        assert max(proxy) / min(proxy) < 1.5
        assert max(eager) / min(eager) > 1_000

    def test_bench_serving_stamps_what_seeding_needs(self, tmp_path):
        """A fresh BENCH_SERVING.json carries ``host`` and ``git_sha``,
        so its seeded row is attributable without ``--sha``."""
        from benchmarks import bench_serving

        out = tmp_path / "serving.json"
        assert bench_serving.main(["--smoke", "--out", str(out)]) == 0
        serving = json.loads(out.read_text())
        assert serving["host"]["python"] and serving["host"]["os_cpu_count"] >= 1
        assert serving["git_sha"] == head_sha(REPO)
        # --smoke skips the bisection the row is made of: borrow it
        with open(os.path.join(REPO, "BENCH_SERVING.json")) as fh:
            serving["bisection"] = json.load(fh)["bisection"]
        (row,) = seed_rows(serving=serving, date="2026-10-02")
        assert row["bench"] == "bench_serving"
        assert row["host"] == serving["host"]
        assert row["git_sha"] == serving["git_sha"]

    def test_checked_in_history_is_valid_and_fresh(self):
        """BENCH_HISTORY.jsonl in the repo root must load, validate and
        match the artifacts it was seeded from."""
        rows = load_history(os.path.join(REPO, "BENCH_HISTORY.jsonl"))
        assert len(rows) >= 5
        kernel = [r for r in rows if r["bench"] == "bench_kernel"]
        ok, _ = check_history(kernel, "bench_kernel", floor=50000)
        assert ok
        assert any(r["bench"] == "bench_payload" for r in rows)
        # the trajectory is attributable: every row names its commit
        assert all(isinstance(r.get("git_sha"), str) for r in rows)


class TestCli:
    def test_append_show_check(self, tmp_path, capsys):
        run = tmp_path / "run.json"
        run.write_text(json.dumps({
            "bench": "bench_kernel", "date": "2026-08-08",
            "git_sha": "abc1234", "host": {"python": "3.11.7"},
            "events_per_sec": {"timeout-chain": 250000},
        }))
        hist = str(tmp_path / "h.jsonl")
        assert main(["append", hist, str(run)]) == 0
        assert main(["show", hist]) == 0
        assert "bench_kernel" in capsys.readouterr().out
        assert main(["check", hist, "--bench", "bench_kernel",
                     "--floor", "100000"]) == 0
        assert main(["check", hist, "--bench", "bench_kernel",
                     "--floor", "999999999"]) == 1

    @pytest.mark.parametrize("missing", ["git_sha", "host"])
    def test_append_refuses_an_unattributable_row(self, tmp_path, capsys, missing):
        """Outside a checkout nothing can fill the sha, and nothing ever
        fills the host: such a row needs --sha to be named by hand."""
        payload = {
            "bench": "bench_kernel", "date": "2026-08-08",
            "git_sha": "abc1234", "host": {"python": "3.11.7"},
            "events_per_sec": {"timeout-chain": 250000},
        }
        payload[missing] = None
        run = tmp_path / "run.json"
        run.write_text(json.dumps(payload))
        hist = str(tmp_path / "h.jsonl")
        assert main(["append", hist, str(run)]) == 1
        assert f"{missing} is null" in capsys.readouterr().err
        assert load_history(hist) == []
        assert main(["append", hist, str(run), "--sha", "feedbee"]) == 0
        (row,) = load_history(hist)
        assert row["git_sha"] == "feedbee"

    def test_append_refuses_a_dirty_sha(self, tmp_path, capsys):
        """``<sha>-dirty`` names code that is in no commit: the row is
        appended from a clean checkout, or the commit named by hand."""
        run = tmp_path / "run.json"
        run.write_text(json.dumps({
            "bench": "bench_e2e", "date": "2026-10-02",
            "git_sha": "317ae3b-dirty", "host": {"python": "3.11.7"},
            "metrics": {"lowcont_bank_80.host_us_per_commit": 1023.0},
        }))
        hist = str(tmp_path / "h.jsonl")
        assert main(["append", hist, str(run)]) == 1
        assert "317ae3b-dirty" in capsys.readouterr().err
        assert load_history(hist) == []
        assert main(["append", hist, str(run), "--sha", "feedbee"]) == 0
        (row,) = load_history(hist)
        assert row["git_sha"] == "feedbee"

    def test_append_fills_the_sha_inside_a_checkout(self, tmp_path):
        import shutil
        import subprocess

        if shutil.which("git") is None:
            pytest.skip("needs git")
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
        run = tmp_path / "run.json"
        run.write_text(json.dumps({
            "bench": "bench_kernel", "date": "2026-08-08",
            "host": {"python": "3.11.7"},
            "events_per_sec": {"timeout-chain": 250000},
        }))
        hist = str(tmp_path / "h.jsonl")
        assert main(["append", hist, str(run)]) == 0
        (row,) = load_history(hist)
        assert row["git_sha"] == head_sha(str(tmp_path)) is not None

    def test_check_requires_a_gate(self, tmp_path):
        hist = str(tmp_path / "h.jsonl")
        with pytest.raises(SystemExit):
            main(["check", hist, "--bench", "x"])

    def test_seed_cli(self, tmp_path, capsys):
        hist = str(tmp_path / "h.jsonl")
        assert main(["seed", hist,
                     "--par", os.path.join(REPO, "BENCH_PAR.json"),
                     "--serving", os.path.join(REPO, "BENCH_SERVING.json"),
                     "--date", "2026-08-05"]) == 0
        assert len(load_history(hist)) == 4
        assert main(["seed", hist]) == 1  # nothing to seed

    def test_show_renders_trajectory_ratio(self, tmp_path, capsys):
        hist = str(tmp_path / "h.jsonl")
        append_row(hist, _row(eps=100))
        append_row(hist, _row(date="2026-08-02", eps=150))
        assert main(["show", hist]) == 0
        out = capsys.readouterr().out
        assert "(1.50x)" in out

    def test_error_paths_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["show", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
