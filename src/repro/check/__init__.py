"""repro.check — correctness tooling for the reproduction.

Four layers, one rule namespace (:mod:`repro.check.rules`):

* :mod:`repro.check.lint` — the determinism linter
  (``python -m repro.check.lint src/``);
* :mod:`repro.check.sanitize` — the runtime invariant sanitizer
  (``CheckConfig(sanitize=True)`` / ``REPRO_SANITIZE=1``);
* :mod:`repro.check.races` — the trace-replay race detector
  (``python -m repro.check.races run.jsonl``);
* :mod:`repro.check.explore` — the bounded systematic interleaving
  explorer (``python -m repro.check.explore --nodes 2 --txns 2``), with
  its serializability oracle in :mod:`repro.check.oracle`.

Beside them, :mod:`repro.check.ab` checks a perf claim: interleaved
parent / change host-cost pairs of the end-to-end ledger, digests
compared on every pair (``python -m repro.check.ab host PARENT CHANGE
--workload W --pairs N``).

See DESIGN.md §3e for the full rule table.
"""

from repro.check.rules import (
    EXPLORE_RULES,
    INVARIANT_RULES,
    LINT_RULES,
    RACE_RULES,
    RULES,
    Rule,
    rule,
)
from repro.check.sanitize import InvariantViolation, Sanitizer

__all__ = [
    "Rule",
    "rule",
    "RULES",
    "LINT_RULES",
    "INVARIANT_RULES",
    "RACE_RULES",
    "EXPLORE_RULES",
    "InvariantViolation",
    "Sanitizer",
]
