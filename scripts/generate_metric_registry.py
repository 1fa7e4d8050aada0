#!/usr/bin/env python
"""Generate (or verify) the metric-name registry reprolint checks against.

Usage::

    python scripts/generate_metric_registry.py            # rewrite registry
    python scripts/generate_metric_registry.py --check    # fail on drift

The registry (``src/repro/analysis/metric_registry.txt``) is the pinned
universe of metric names the MET001/MET002 checker validates emission
sites against.  It is derived from three sources, merged and sorted:

1. the pinned CDC/reconciliation counter set in
   ``tests/test_metrics_stability.py`` (``PINNED_CDC_COUNTERS``) -- read
   via AST so generating the registry needs no test imports;
2. an AST sweep of every emission call site under the linted roots
   (string literals, and f-strings with interpolations wildcarded to
   ``*``);
3. the curated ``EXTRA_PATTERNS`` below for names built once and stored
   on handles (so no literal appears at the emission site).

The workflow mirrors the EXPERIMENTS.md freshness gate: CI runs
``--check`` and fails when the committed registry drifts from what the
tree emits, so adding a metric is a deliberate two-line diff (the call
site and the regenerated registry) while a *typo* at a call site fails
MET001 against the committed registry before it can be silently absorbed.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Set

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.checkers.metric_registry import (  # noqa: E402
    DEFAULT_REGISTRY_FILE, EMISSION_METHODS)
from repro.analysis.engine import LintEngine  # noqa: E402

PINNED_SOURCE = ROOT / "tests" / "test_metrics_stability.py"

#: Names assembled once and stored on handles (e.g. the per-client counter
#: names precomputed in ``api/session.py``, the per-priority-class names
#: cached by ``MetricsBatch.record_answer``), so no literal reaches an
#: emission call for the sweep to find.
EXTRA_PATTERNS = (
    "api.client.*.requests",
    "api.client.*.rejected",
    "batch.priority.*.completed",
    "batch.priority.*.failed",
)

HEADER = """\
# The metric-name universe: every counter/gauge/histogram name the tree
# may emit.  One name (or *-wildcarded pattern for dynamic names) per
# line, sorted.  Checked by reprolint rules MET001/MET002.
#
# GENERATED -- regenerate with:
#     python scripts/generate_metric_registry.py
# CI verifies freshness with --check.  A name missing here is either a
# typo at the call site (fix the call site) or a new metric (regenerate
# and commit the one-line diff).  Never rename an existing metric: the
# benchmark gates and tests/test_metrics_stability.py pin them.
"""


def pinned_counters() -> Set[str]:
    """``PINNED_CDC_COUNTERS`` from the stability test, read via AST."""
    tree = ast.parse(PINNED_SOURCE.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and \
                    target.id == "PINNED_CDC_COUNTERS":
                value = ast.literal_eval(node.value)
                return set(value)
    raise SystemExit(
        f"PINNED_CDC_COUNTERS not found in {PINNED_SOURCE}")


def swept_names() -> Set[str]:
    """Every literal / f-string-skeleton name at an emission call site."""
    engine = LintEngine(ROOT, checkers=[])
    names: Set[str] = set()
    for path in engine.discover():
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args and
                    isinstance(node.func, ast.Attribute) and
                    node.func.attr in EMISSION_METHODS):
                continue
            names.update(_names_from(node.args[0]))
    return names


def _names_from(arg: ast.expr) -> Set[str]:
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return {arg.value} if arg.value else set()
    if isinstance(arg, ast.JoinedStr):
        return {"".join(
            value.value if isinstance(value, ast.Constant) else "*"
            for value in arg.values)}
    if isinstance(arg, ast.IfExp):
        return _names_from(arg.body) | _names_from(arg.orelse)
    return set()


def registry_body() -> str:
    names = pinned_counters() | swept_names() | set(EXTRA_PATTERNS)
    return HEADER + "".join(f"{name}\n" for name in sorted(names))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="fail when the committed registry drifts")
    args = parser.parse_args(argv)

    expected = registry_body()
    if args.check:
        current = DEFAULT_REGISTRY_FILE.read_text(encoding="utf-8") \
            if DEFAULT_REGISTRY_FILE.exists() else ""
        if current != expected:
            print("metric registry drift: "
                  f"{DEFAULT_REGISTRY_FILE.relative_to(ROOT)} does not "
                  "match the tree.\nRegenerate with: "
                  "python scripts/generate_metric_registry.py",
                  file=sys.stderr)
            return 1
        print("metric registry is fresh "
              f"({len(expected.splitlines())} lines)")
        return 0

    DEFAULT_REGISTRY_FILE.write_text(expected, encoding="utf-8")
    print(f"wrote {DEFAULT_REGISTRY_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
