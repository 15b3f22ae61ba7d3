"""``python -m repro.check`` — point at the check CLIs."""

import sys

USAGE = """\
repro.check has four command-line entry points:

  python -m repro.check.lint [paths...]     determinism linter
  python -m repro.check.races RUN.JSONL     trace-replay race detector
  python -m repro.check.explore [--nodes N --txns K --scheduler rts|tfa]
                                            bounded interleaving explorer
  python -m repro.check.ab host PARENT CHANGE --workload W --pairs N
                                            interleaved host-cost pairs

Rule reference: DESIGN.md §3e, or `python -m repro.check --rules`.
"""


def main() -> int:
    if "--rules" in sys.argv[1:]:
        from repro.check.rules import RULES

        for rule_id in sorted(RULES):
            print(f"{rule_id:36} {RULES[rule_id].summary}")
        return 0
    print(USAGE, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
