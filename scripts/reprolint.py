#!/usr/bin/env python
"""reprolint CLI: AST-based invariant linting, wired into the CI lint job.

Usage::

    python scripts/reprolint.py                     # lint the whole tree
    python scripts/reprolint.py --baseline          # honour the committed
                                                    # .reprolint-baseline
    python scripts/reprolint.py src/repro/storage   # lint a subtree
    python scripts/reprolint.py --write-baseline    # burn in the current
                                                    # findings
    python scripts/reprolint.py --list-rules        # rule catalogue

Exit codes: 0 clean, 1 findings (or unjustified inline suppressions under
``src/repro/``), 2 configuration error.

The checkers and their rationale live in ``src/repro/analysis/`` (see
ARCHITECTURE.md, "Static analysis & invariants").  Pre-existing findings
can be burned down incrementally: ``--write-baseline`` records them in
``.reprolint-baseline`` and ``--baseline`` runs report-but-don't-fail for
exactly those keys, so a new checker never needs a flag-day sweep -- while
anything *new* still fails CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import (  # noqa: E402  (path bootstrap above)
    LintEngine, format_baseline, load_baseline)
from repro.analysis.checkers import rule_catalogue  # noqa: E402

#: Resolved against ``--root`` at run time, so scratch-tree runs never
#: touch the checkout's committed baseline.
DEFAULT_BASELINE = Path(".reprolint-baseline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: "
                             "src scripts examples)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="repository root (default: this checkout)")
    parser.add_argument("--baseline", nargs="?", type=Path,
                        const=DEFAULT_BASELINE, default=None,
                        metavar="FILE",
                        help="suppress findings recorded in FILE "
                             "(default file: .reprolint-baseline)")
    parser.add_argument("--write-baseline", nargs="?", type=Path,
                        const=DEFAULT_BASELINE, default=None,
                        metavar="FILE",
                        help="record current findings as the new baseline "
                             "and exit 0")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule, description in sorted(rule_catalogue().items()):
            print(f"{rule}  {description}")
        return 0

    root = args.root.resolve()
    try:
        engine = LintEngine(root)
    except (OSError, ValueError) as error:
        print(f"reprolint: configuration error: {error}", file=sys.stderr)
        return 2

    baseline = set()
    if args.baseline is not None:
        baseline_path = args.baseline if args.baseline.is_absolute() \
            else root / args.baseline
        baseline = load_baseline(baseline_path)

    report = engine.run(paths=args.paths or None, baseline=baseline)

    if args.write_baseline is not None:
        target = args.write_baseline if args.write_baseline.is_absolute() \
            else root / args.write_baseline
        target.write_text(format_baseline(report.findings),
                          encoding="utf-8")
        print(f"baseline written: {target} "
              f"({len(report.findings)} finding(s) burned in)")
        return 0

    # Unjustified inline suppressions inside src/repro/ are themselves a
    # failure: the escape hatch must carry a reason (`-- why`) to exist.
    unjustified = [s for s in report.unjustified_suppressions()
                   if s.path.startswith("src/repro/")]

    if args.json:
        print(json.dumps({
            "findings": [vars(f) for f in report.findings],
            "baselined": [vars(f) for f in report.baselined],
            "suppressed": [vars(f) for f in report.suppressed],
            "suppressions": [
                {"path": s.path, "line": s.line, "rules": list(s.rules),
                 "justified": s.justified} for s in report.suppressions],
            "files_checked": report.files_checked,
        }, indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        for suppression in report.suppressions:
            print(f"note: {suppression.render()}")
        for suppression in unjustified:
            print(f"{suppression.path}:{suppression.line}: suppression "
                  f"without a `-- justification` trailer", file=sys.stderr)
        print(report.summary())

    return 1 if (report.findings or unjustified) else 0


if __name__ == "__main__":
    sys.exit(main())
