"""Figure 6: summary of RTS throughput speedup over TFA and TFA+Backoff.

The paper reports, per benchmark, four bars: speedup of RTS over TFA and
over TFA+Backoff, at low and at high contention, peaking at 1.53x (low)
to 1.88x (high).  We derive the same summary from the Figure 4/5 sweeps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.figures import FigureData, run_figure
from repro.analysis.render import render_table
from repro.analysis.scales import Scale

__all__ = ["PAPER_FIG6_RANGE", "run_speedup_summary", "format_speedup"]

#: the paper's headline: RTS speedup reaches 1.53x (low) - 1.88x (high)
PAPER_FIG6_RANGE = (1.53, 1.88)


def run_speedup_summary(
    scale: str | Scale = "quick",
    seed: int = 1,
    benchmarks: Optional[List[str]] = None,
    fig4: Optional[FigureData] = None,
    fig5: Optional[FigureData] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Measure (or reuse) the Figure 4/5 sweeps and summarise speedups;
    ``jobs`` / ``cache_dir`` go to :func:`~repro.analysis.figures.run_figure`."""
    if fig4 is None:
        fig4 = run_figure("fig4", scale=scale, seed=seed, benchmarks=benchmarks,
                          jobs=jobs, cache_dir=cache_dir)
    if fig5 is None:
        fig5 = run_figure("fig5", scale=scale, seed=seed, benchmarks=benchmarks,
                          jobs=jobs, cache_dir=cache_dir)
    rows: List[Dict[str, Any]] = []
    for bench in fig4.series:
        rows.append({
            "benchmark": bench,
            "tfa_low": fig4.speedup(bench, "tfa"),
            "backoff_low": fig4.speedup(bench, "tfa-backoff"),
            "tfa_high": fig5.speedup(bench, "tfa"),
            "backoff_high": fig5.speedup(bench, "tfa-backoff"),
        })
    return rows


def format_speedup(rows: List[Dict[str, Any]]) -> str:
    display = [
        {
            "Benchmark": r["benchmark"],
            "TFA (low)": f"{r['tfa_low']:.2f}x",
            "TFA+Backoff (low)": f"{r['backoff_low']:.2f}x",
            "TFA (high)": f"{r['tfa_high']:.2f}x",
            "TFA+Backoff (high)": f"{r['backoff_high']:.2f}x",
        }
        for r in rows
    ]
    lo, hi = PAPER_FIG6_RANGE
    return render_table(
        display,
        ["Benchmark", "TFA (low)", "TFA+Backoff (low)",
         "TFA (high)", "TFA+Backoff (high)"],
        title=(
            "Figure 6 — RTS throughput speedup over baselines "
            f"(paper reports up to {lo:.2f}x low / {hi:.2f}x high)"
        ),
    )
