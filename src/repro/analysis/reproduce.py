"""The reproduction CLI.

Usage::

    python -m repro.analysis.reproduce table1            # Table I
    python -m repro.analysis.reproduce fig4 fig5 fig6    # figures
    python -m repro.analysis.reproduce ablations         # A1-A5, A7
    python -m repro.analysis.reproduce all --scale quick
    python -m repro.analysis.reproduce all --scale full  # paper-scale

Output is plain text (one table per artefact), suitable for diffing
against EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List

from repro.analysis.ablations import ALL_ABLATIONS, format_ablation
from repro.analysis.figures import format_figure, run_figure
from repro.analysis.scales import SCALES
from repro.analysis.speedup import format_speedup, run_speedup_summary
from repro.analysis.table1 import format_table1, run_table1

__all__ = ["main"]

ARTEFACTS = ("table1", "fig4", "fig5", "fig6", "ablations")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-reproduce",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artefacts", nargs="+",
        choices=[*ARTEFACTS, "all"],
        help="which artefacts to regenerate",
    )
    parser.add_argument("--scale", default="quick", choices=sorted(SCALES),
                        help="experiment scale preset (default: quick)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="restrict to these benchmarks")
    parser.add_argument("--export-dir", default=None,
                        help="also write each artefact as JSON into this directory")
    from repro.par import add_par_args

    add_par_args(parser)
    args = parser.parse_args(argv)

    wanted = list(ARTEFACTS) if "all" in args.artefacts else args.artefacts
    started = time.time()  # check: allow[det-wall-clock] -- host-side progress report; never enters the simulation
    fig_cache = {}
    #: every artefact's cells run through repro.par.run_grid
    par = {"jobs": args.jobs, "cache_dir": args.cache_dir}

    def export(name: str, rows: List[Dict[str, Any]]) -> None:
        if args.export_dir is None:
            return
        from repro.analysis.export import export_rows

        out = export_rows(rows, f"{args.export_dir}/{name}.json")
        print(f"[exported {out}]")

    for artefact in wanted:
        print(f"\n{'=' * 72}\n# {artefact}  (scale={args.scale}, seed={args.seed})\n{'=' * 72}")
        if artefact == "table1":
            rows = run_table1(scale=args.scale, seed=args.seed,
                              benchmarks=args.benchmarks, **par)
            print(format_table1(rows))
            export("table1", rows)
        elif artefact in ("fig4", "fig5"):
            data = run_figure(artefact, scale=args.scale, seed=args.seed,
                              benchmarks=args.benchmarks, **par)
            fig_cache[artefact] = data
            print(format_figure(data))
            if args.export_dir is not None:
                from repro.analysis.export import figure_to_rows

                export(artefact, figure_to_rows(data))
        elif artefact == "fig6":
            rows = run_speedup_summary(
                scale=args.scale, seed=args.seed,
                benchmarks=args.benchmarks,
                fig4=fig_cache.get("fig4"), fig5=fig_cache.get("fig5"),
                **par,
            )
            print(format_speedup(rows))
            export("fig6", rows)
        elif artefact == "ablations":
            for name, (runner, _title) in ALL_ABLATIONS.items():
                rows = runner(scale=args.scale, seed=args.seed, **par)
                print(format_ablation(name, rows))
                export(f"ablation_{name}", rows)
                print()
        sys.stdout.flush()

    print(f"\n(total wall time: {time.time() - started:.1f}s)")  # check: allow[det-wall-clock] -- host-side progress report; never enters the simulation
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
