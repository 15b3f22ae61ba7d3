"""``benchmarks/bench_serving.py``: where its results go."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", ".."))

from benchmarks import bench_serving  # noqa: E402


def test_a_smoke_run_writes_no_file_unless_asked(tmp_path, monkeypatch):
    """The smoke grid must not overwrite the checked-in full sweep
    (``BENCH_SERVING.json``, the default ``--out`` of a full run)."""
    monkeypatch.chdir(tmp_path)
    argv = ["--smoke", "--nodes", "4", "--horizon", "1"]
    assert bench_serving.main(argv) == 0
    assert list(tmp_path.iterdir()) == []
    assert bench_serving.main(argv + ["--out", "smoke.json"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["smoke.json"]
