"""Integration tests for the reproduction harness (smoke scale)."""

import pytest

from repro.analysis.figures import FigureData, format_figure, run_figure
from repro.analysis.scales import BENCHMARKS, SCALES, Scale
from repro.analysis.speedup import format_speedup, run_speedup_summary
from repro.analysis.table1 import PAPER_TABLE1, format_table1, run_table1

TINY = Scale(name="tiny", node_counts=(4,), horizon=3.0,
             workers_per_node=2, table_nodes=4, table_commits=40)


class TestScales:
    def test_presets_exist(self):
        for name in ("smoke", "quick", "full"):
            assert name in SCALES

    def test_full_matches_paper_axis(self):
        assert SCALES["full"].node_counts == (10, 20, 30, 40, 50, 60, 70, 80)
        assert SCALES["full"].table_commits == 10_000

    def test_paper_table1_covers_all_benchmarks(self):
        assert set(PAPER_TABLE1) == set(BENCHMARKS)
        for cells in PAPER_TABLE1.values():
            assert set(cells) == {"low/rts", "low/tfa", "high/rts", "high/tfa"}
            # Paper's Table I: RTS rate below TFA rate in every cell.
            assert cells["low/rts"] < cells["low/tfa"]
            assert cells["high/rts"] < cells["high/tfa"]


class TestTable1Harness:
    def test_measures_and_formats(self):
        rows = run_table1(scale=TINY, seed=1, benchmarks=["bank"])
        assert len(rows) == 1
        row = rows[0]
        for key in ("low/rts", "low/tfa", "high/rts", "high/tfa"):
            assert 0.0 <= row[key] <= 1.0
            assert f"{key}/paper" in row
        text = format_table1(rows)
        assert "bank" in text and "paper" in text


class TestFigureHarness:
    def test_fig4_series_structure(self):
        data = run_figure("fig4", scale=TINY, seed=1, benchmarks=["dht"])
        assert isinstance(data, FigureData)
        assert data.contention == "low"
        assert set(data.series["dht"]) == {"rts", "tfa", "tfa-backoff"}
        for series in data.series["dht"].values():
            assert len(series) == 1
            assert series[0] > 0
        text = format_figure(data)
        assert "Figure 4" in text and "dht" in text

    def test_fig5_is_high_contention(self):
        data = run_figure("fig5", scale=TINY, seed=1, benchmarks=["dht"])
        assert data.contention == "high"

    def test_speedup_method(self):
        data = FigureData(figure="fig4", contention="low", node_counts=(4, 8))
        data.series["bank"] = {"rts": [10.0, 20.0], "tfa": [5.0, 10.0],
                               "tfa-backoff": [10.0, 40.0]}
        assert data.speedup("bank", "tfa") == pytest.approx(2.0)
        assert data.speedup("bank", "tfa-backoff") == pytest.approx(0.75)


class TestSpeedupHarness:
    def test_summary_reuses_figure_data(self):
        fig4 = run_figure("fig4", scale=TINY, seed=1, benchmarks=["dht"])
        fig5 = run_figure("fig5", scale=TINY, seed=1, benchmarks=["dht"])
        rows = run_speedup_summary(fig4=fig4, fig5=fig5)
        assert len(rows) == 1
        assert rows[0]["benchmark"] == "dht"
        assert rows[0]["tfa_low"] > 0
        text = format_speedup(rows)
        assert "1.53x" in text and "1.88x" in text


class TestCli:
    def test_cli_table1_smokes(self, capsys):
        from repro.analysis.reproduce import main

        # Tiny slice through the real CLI path.
        rc = main(["table1", "--scale", "smoke", "--benchmarks", "dht"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table I" in out

    def test_cli_rejects_unknown_artefact(self):
        from repro.analysis.reproduce import main

        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_cli_hands_jobs_and_cache_dir_to_every_artefact(self, monkeypatch, capsys):
        from repro.analysis import reproduce

        seen = {}

        def recorder(name, result):
            def runner(*args, **kwargs):
                seen[name] = (kwargs.get("jobs"), kwargs.get("cache_dir"))
                return result
            return runner

        figure = FigureData(figure="fig4", contention="low", node_counts=(4,))
        monkeypatch.setattr(reproduce, "run_table1", recorder("table1", []))
        monkeypatch.setattr(reproduce, "run_figure", recorder("fig", figure))
        monkeypatch.setattr(reproduce, "run_speedup_summary", recorder("fig6", []))
        monkeypatch.setattr(reproduce, "format_table1", lambda rows: "")
        monkeypatch.setattr(reproduce, "format_figure", lambda data: "")
        monkeypatch.setattr(reproduce, "format_speedup", lambda rows: "")
        rc = reproduce.main(
            ["table1", "fig4", "fig6", "--jobs", "3", "--cache-dir", "cells"]
        )
        capsys.readouterr()
        assert rc == 0
        assert seen == {name: (3, "cells") for name in ("table1", "fig", "fig6")}


#: the rows each runner produced at TINY scale, seed 1, when it looped
#: over run_experiment serially
SERIAL_TABLE1_BANK = {
    "benchmark": "bank",
    "low/rts": 1.0, "low/rts/paper": 0.215,
    "low/tfa": 1.0, "low/tfa/paper": 0.464,
    "high/rts": 0.9607843137254902, "high/rts/paper": 0.233,
    "high/tfa": 0.9634146341463414, "high/tfa/paper": 0.637,
}
SERIAL_FIG5_DHT = {"rts": [22.0], "tfa": [21.666666666666668],
                   "tfa-backoff": [21.666666666666668]}


class TestParallelCells:
    """Table I and the figures run their cells through repro.par."""

    def test_table1_rows_are_the_serial_rows_at_any_jobs(self):
        for jobs in (1, 2):
            rows = run_table1(scale=TINY, seed=1, benchmarks=["bank"], jobs=jobs)
            assert rows == [SERIAL_TABLE1_BANK], jobs

    def test_figure_series_are_the_serial_series_at_any_jobs(self):
        for jobs in (1, 2):
            data = run_figure("fig5", scale=TINY, seed=1, benchmarks=["dht"], jobs=jobs)
            assert data.series == {"dht": SERIAL_FIG5_DHT}, jobs

    def test_a_second_run_is_served_from_the_cache(self, tmp_path, monkeypatch):
        import repro.par.engine as engine

        first = run_table1(scale=TINY, seed=1, benchmarks=["bank"],
                           cache_dir=str(tmp_path))
        fig = run_figure("fig5", scale=TINY, seed=1, benchmarks=["dht"],
                         cache_dir=str(tmp_path))

        def no_compute(spec):
            raise AssertionError(f"cell computed again: {spec}")

        monkeypatch.setattr(engine, "_compute_cell", no_compute)
        assert run_table1(scale=TINY, seed=1, benchmarks=["bank"],
                          cache_dir=str(tmp_path)) == first
        again = run_figure("fig5", scale=TINY, seed=1, benchmarks=["dht"],
                           cache_dir=str(tmp_path))
        assert again.series == fig.series
