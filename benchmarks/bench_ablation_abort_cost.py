"""Ablation A7 — abort-overhead sensitivity.

The simulator charges aborts their re-communication plus a configurable
framework rollback cost (``abort_overhead``).  This sweep documents how
the scheduler comparison depends on that cost — the key fidelity
parameter separating a pure protocol model from the paper's Java/HyFlow
testbed (see EXPERIMENTS.md, "Figure 6 — speedup summary").
"""

import pytest

from benchmarks.conftest import run_cell

OVERHEADS = (0.0, 0.01, 0.05)


def _cell(overhead, scheduler, bench_cache):
    return bench_cache(
        ("a7", overhead, scheduler),
        lambda: run_cell("bank", scheduler, 0.1, abort_overhead=overhead),
    )


@pytest.mark.parametrize("overhead", OVERHEADS)
def test_all_overheads_make_progress(overhead, bench_cache):
    assert _cell(overhead, "rts", bench_cache).commits > 0


@pytest.mark.parametrize("overhead", OVERHEADS)
def test_rts_abort_economy_invariant_to_overhead(overhead, bench_cache):
    """RTS's abort reduction is a protocol property, not a pricing one."""
    rts = _cell(overhead, "rts", bench_cache)
    tfa = _cell(overhead, "tfa", bench_cache)
    assert rts.root_aborts <= tfa.root_aborts * 1.25 + 20


def test_higher_abort_cost_penalises_tfa_more(bench_cache):
    """TFA aborts more, so raising the per-abort price costs it at least
    as much throughput as RTS."""
    tfa_cheap = _cell(0.0, "tfa", bench_cache)
    tfa_dear = _cell(0.05, "tfa", bench_cache)
    rts_cheap = _cell(0.0, "rts", bench_cache)
    rts_dear = _cell(0.05, "rts", bench_cache)
    tfa_loss = tfa_cheap.throughput - tfa_dear.throughput
    rts_loss = rts_cheap.throughput - rts_dear.throughput
    assert rts_loss <= tfa_loss + 0.1 * tfa_cheap.throughput


def test_benchmark_abort_cost_cell(benchmark):
    result = benchmark.pedantic(
        lambda: run_cell("bank", "tfa", 0.1, abort_overhead=0.05),
        rounds=1, iterations=1,
    )
    assert result.commits > 0
