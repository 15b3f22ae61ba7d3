"""One span fold: the live summary, the report CLI and its Chrome export
all pair span edges through ``repro.obs.spans.SpanBuilder``."""

import pathlib
import re

import pytest

from repro.core.config import ClusterConfig, ObsConfig
from repro.core.experiment import run_experiment
from repro.obs.report import load_events, summarize

OBS_SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "obs"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One bank run exporting the JSONL log."""
    out = tmp_path_factory.mktemp("fold")
    jsonl = out / "run.jsonl"
    cfg = ClusterConfig(
        num_nodes=4, seed=5,
        obs=ObsConfig(enabled=True, jsonl_path=str(jsonl)),
    )
    result = run_experiment("bank", cfg, horizon=2.0, workers_per_node=2)
    assert result.commits > 0
    return result, jsonl


def test_live_phases_equal_the_report(traced):
    """Exact dict equality, mean included: both sides keep one float per
    closed phase and finished span and build rows with one function."""
    result, jsonl = traced
    live = result.extra["obs"]["phases"]
    assert live["open"]["count"] > 5  # beyond any small-sample regime
    assert live == summarize(load_events(str(jsonl)))["phases"]


def test_only_spans_module_reads_phase_edges():
    """Pairing ``B``/``E`` edges is ``spans.py``'s job alone; the schema
    module checks an edge's value but pairs nothing."""
    readers = sorted(
        path.name
        for path in OBS_SRC.glob("*.py")
        if re.search(r"""["']edge["']""", path.read_text(encoding="utf-8"))
    )
    assert readers == ["events.py", "spans.py"]
