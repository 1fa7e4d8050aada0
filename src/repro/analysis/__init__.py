"""reprolint: AST-based invariant linting for the reproduction.

The correctness story of this repo rests on structural invariants no unit
test can fully pin down:

* **determinism** -- bit-identical replays require that nothing inside
  ``src/repro/`` reads wall-clock time or draws from unseeded randomness;
  all stochastic behaviour flows through the named, seeded streams of
  ``sim/rng.py`` and the simulated clock.
* **layering** -- fencing and CDC correctness assume the package import
  DAG (``storage -> replication -> core -> api``) stays acyclic; an
  accidental upward import is a latent circular-init bug and an
  architecture leak.
* **metric hygiene** -- the benchmark gates and dashboards key on exact
  metric names; a typo (``replication.mux.wakeup`` vs ``.wakeups``)
  silently zeroes a gate.

``reprolint`` walks every Python file under the configured roots with one
shared AST pass per file and runs pluggable checkers over it, emitting
structured findings (file, line, rule id, message, fix hint).  Pre-existing
findings can be burned down incrementally through a committed baseline
file, and inline ``# reprolint: disable=RULE`` suppressions are themselves
counted and reported so they cannot accumulate silently.

Entry points:

* :class:`~repro.analysis.engine.LintEngine` -- programmatic API;
* ``scripts/reprolint.py`` -- the CLI (used by the CI ``lint`` job).
"""

from repro.analysis.findings import Finding, Suppression
from repro.analysis.engine import (
    LintEngine,
    LintReport,
    ParsedModule,
    load_baseline,
    format_baseline,
)
from repro.analysis.checkers import ALL_CHECKERS, Checker

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "LintEngine",
    "LintReport",
    "ParsedModule",
    "Suppression",
    "format_baseline",
    "load_baseline",
]
