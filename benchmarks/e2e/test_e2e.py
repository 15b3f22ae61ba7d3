"""Tests of the ledger itself: ``PYTHONPATH=src python -m pytest benchmarks/e2e``
(``benchmarks/conftest.py``, one directory up, imports ``repro``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): these start
interpreters and run small cells, ~35 s in all.
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# this directory's trace.py, loaded by path: ``import trace`` could find
# the standard library's module of the same name
_spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_trace)
Tracer = _trace.Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


# -- BENCHMARK.json ------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.fullmatch(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_cells(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import cells

    assert [w["name"] for w in SPEC["workloads"]] == list(cells.CELLS)


# -- span arithmetic -----------------------------------------------------


class Clock:
    """A host clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def work(self, ns):
        self.now += ns


def test_nested_calls_self_times_sum_to_the_outer_span():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.work(7)

    def middle():
        clock.work(5)
        leaf_span()
        leaf_span()

    def outer():
        clock.work(3)
        middle_span()
        clock.work(2)

    leaf_span = tracer.wrap(leaf, "net", "leaf")
    middle_span = tracer.wrap(middle, "rpc", "middle")
    tracer.wrap(outer, "dstm", "outer")()

    assert tracer.agg == {
        ("net", "leaf"): [2, 14, 14],
        ("rpc", "middle"): [1, 19, 5],
        ("dstm", "outer"): [1, 24, 5],
    }
    assert sum(row[2] for row in tracer.agg.values()) == 24
    assert tracer.stack == []


def test_yield_from_chain_times_each_resume_and_sums_to_the_outer_span():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def inner(x):
        clock.work(10)
        got = yield x
        clock.work(20)
        return got * 2

    def outer():
        clock.work(1)
        doubled = yield from inner_span(5)
        clock.work(2)
        try:
            yield doubled
        except KeyError:
            clock.work(4)
        return "done"

    inner_span = tracer.wrap(inner, "core", "inner")
    gen = tracer.wrap(outer, "workloads", "outer")()

    assert next(gen) == 5            # outer 1 + inner 10
    clock.work(1000)                 # suspended: nobody is charged
    assert gen.send(21) == 42        # inner 20, outer 2
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError())        # outer 4
    assert stop.value.value == "done"

    assert tracer.agg == {
        ("core", "inner"): [2, 30, 30],
        ("workloads", "outer"): [3, 37, 7],
    }
    assert sum(row[2] for row in tracer.agg.values()) == 37
    assert tracer.stack == []


def test_a_raising_callee_still_closes_its_span():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.work(3)
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap(boom, "sim", "boom")()
    assert tracer.agg == {("sim", "boom"): [1, 3, 3]}
    assert tracer.stack == []


# -- the command ---------------------------------------------------------


def test_smoke_passes_every_check_and_prints_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "ledger.json"
    started = time.perf_counter()
    done = run("--smoke", "--json", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 15, f"--smoke took {elapsed:.1f} s"

    document = json.loads(out.read_text())
    assert document["bench"] == "bench_e2e" and document["claim"] is None
    assert {"git_sha", "host", "seed", "date", "metrics"} <= set(document)
    assert {"nproc", "python"} <= set(document["host"])
    assert [r["workload"] for r in document["workloads"]] == [
        w["name"] for w in SPEC["workloads"]
    ]
    for record in document["workloads"]:
        assert record["correct"] and record["failures"] == []
        assert record["attempted"] >= 1
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            printed = {name: entry["unit"] for name, entry in record[section].items()}
            assert printed == declared
        for name, entry in record["end_to_end"].items():
            assert entry["value"] > 0, name
            assert re.search(rf"^  {re.escape(name)} ", done.stdout, re.M), name
        assert record["per_layer"]["host.ledger_closure"]["value"] >= 0.97
        assert (HERE / "out" / f"trace_{record['workload']}.json").exists()


@pytest.mark.parametrize("trace_mode", ["0", "1"])
def test_driver_protocol_last_line(trace_mode):
    done = run("--workload", "serve_proxy_bank_8", "--seed", "3", "--seconds", "5",
               "--trace", trace_mode, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    section = "per_layer" if trace_mode == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}


def copy_of_the_benchmark(tmp_path):
    """BENCHMARK.json + this directory under ``tmp_path``, as the driver
    lays out a checkout that holds nothing else."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(
        HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    return copy


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    copy = copy_of_the_benchmark(tmp_path)
    done = run("--workload", "lowcont_bank_80", "--seed", "1", "--seconds", "18",
               "--trace", "0", cwd=tmp_path, script=copy / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


#: appended to a copy of cells.py: what goes wrong in the workload's process
SABOTAGE = {
    "crash": "def run_once(*args, **kwargs):\n    raise KeyError('sabotaged')\n",
    "failed check": "def _check(*args, **kwargs):\n    return ['sabotaged']\n",
}


@pytest.mark.parametrize("what", sorted(SABOTAGE))
def test_a_broken_child_fails_the_run_whatever_an_earlier_run_left_behind(tmp_path, what):
    copy = copy_of_the_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    with open(copy / "cells.py", "a") as fh:
        fh.write("\n\n" + SABOTAGE[what])
    # an earlier, healthy run's records are still lying around
    (copy / "out").mkdir()
    for workload in SPEC["workloads"]:
        stale = {"workloads": [{"workload": workload["name"], "correct": True, "failures": []}]}
        (copy / "out" / f"ledger_{workload['name']}.json").write_text(json.dumps(stale))

    done = run("--smoke", cwd=tmp_path, script=copy / "run.py")
    assert "every check passed" not in done.stdout
    if what == "crash":
        assert done.returncode not in (0, 3), done.stdout + done.stderr
        assert "died" in done.stderr
    else:
        assert done.returncode == 3, done.stdout + done.stderr
        assert "CHECK FAILED: rep 0: sabotaged" in done.stdout
        assert "CHECKS FAILED on" in done.stdout
