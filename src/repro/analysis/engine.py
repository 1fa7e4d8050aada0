"""The reprolint engine: walk, parse once, run checkers, report.

One :class:`ParsedModule` is built per file (source lines, AST, resolved
import table, inline suppressions) and every checker runs over that shared
parse, so adding a checker costs one AST walk, not one file read.

Findings flow through two filters before they fail a run:

* **inline suppressions** -- ``# reprolint: disable=RULE`` on the finding
  line.  Suppressed findings are dropped from the failure set but the
  suppressions themselves are counted and reported (and flagged when they
  carry no `` -- justification`` trailer).
* **baseline** -- a committed burn-down file of pre-existing findings
  (see :func:`load_baseline`).  Baselined findings are reported as
  "baselined", never as failures, so a legacy tree can adopt a new checker
  without a flag day while new violations still fail CI.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Suppression, parse_suppressions
from repro.analysis.imports import ImportTable

#: Directories walked by default, relative to the repo root.
DEFAULT_ROOTS: Tuple[str, ...] = ("src", "scripts", "examples")

#: Directory names never descended into.
SKIPPED_DIRS = {"__pycache__", ".git", ".pytest_cache", ".hypothesis",
                "build", "dist"}


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every checker."""

    path: Path               #: absolute path on disk
    rel_path: str            #: repo-relative posix path (finding identity)
    source: str
    lines: List[str]
    tree: ast.Module
    module_name: Optional[str]   #: dotted name for files under ``src/``
    imports: ImportTable
    suppressions: List[Suppression]

    @property
    def package(self) -> Optional[str]:
        """The top-level repro package (``storage``, ``api``, ...)."""
        if not self.module_name:
            return None
        parts = self.module_name.split(".")
        if len(parts) < 2 or parts[0] != "repro" or \
                parts[1] == "__init__":
            return None
        return parts[1]

    def in_repro(self) -> bool:
        return self.module_name is not None

    def suppressed_rules_on(self, line: int) -> Set[str]:
        return {rule for suppression in self.suppressions
                if suppression.applies_to == line
                for rule in suppression.rules}


def parse_module(path: Path, root: Path) -> Optional[ParsedModule]:
    """Parse one file; ``None`` when it is not valid Python."""
    rel_path = path.relative_to(root).as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError:
        return None
    module_name = _module_name_for(rel_path)
    lines = source.splitlines()
    return ParsedModule(
        path=path, rel_path=rel_path, source=source, lines=lines,
        tree=tree, module_name=module_name,
        imports=ImportTable(tree, module_name),
        suppressions=parse_suppressions(rel_path, lines))


def _module_name_for(rel_path: str) -> Optional[str]:
    """``src/repro/storage/wal.py`` -> ``repro.storage.wal``."""
    if not rel_path.startswith("src/"):
        return None
    parts = rel_path[len("src/"):].split("/")
    if not parts or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][:-len(".py")]
    return ".".join(parts)


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.findings)

    def unjustified_suppressions(self) -> List[Suppression]:
        return [s for s in self.suppressions if not s.justified]

    def summary(self) -> str:
        parts = [f"{self.files_checked} files checked",
                 f"{len(self.findings)} finding(s)"]
        if self.baselined:
            parts.append(f"{len(self.baselined)} baselined")
        if self.suppressed or self.suppressions:
            parts.append(f"{len(self.suppressions)} inline suppression(s) "
                         f"({len(self.unjustified_suppressions())} "
                         f"unjustified)")
        return ", ".join(parts)


class LintEngine:
    """Walk the tree, run every checker, and assemble a report."""

    def __init__(self, root: Path, checkers: Optional[Sequence] = None,
                 roots: Sequence[str] = DEFAULT_ROOTS):
        from repro.analysis.checkers import default_checkers
        self.root = Path(root)
        self.checkers = list(checkers) if checkers is not None \
            else default_checkers()
        self.roots = tuple(roots)

    # -- file discovery ----------------------------------------------------

    def discover(self, paths: Optional[Sequence[Path]] = None) -> List[Path]:
        """Every Python file under the configured roots, sorted."""
        if paths:
            out: List[Path] = []
            for given in paths:
                given = Path(given)
                if given.is_dir():
                    out.extend(self._walk(given))
                else:
                    out.append(given)
            return sorted(set(out))
        found: List[Path] = []
        for root_name in self.roots:
            base = self.root / root_name
            if base.is_dir():
                found.extend(self._walk(base))
        return sorted(found)

    def _walk(self, base: Path) -> Iterable[Path]:
        for path in sorted(base.rglob("*.py")):
            if any(part in SKIPPED_DIRS for part in path.parts):
                continue
            yield path

    # -- running -----------------------------------------------------------

    def run(self, paths: Optional[Sequence[Path]] = None,
            baseline: Optional[Set[str]] = None) -> LintReport:
        report = LintReport()
        baseline = baseline or set()
        for path in self.discover(paths):
            module = parse_module(path, self.root)
            if module is None:
                report.findings.append(Finding(
                    rule="ENG001", path=path.relative_to(self.root)
                    .as_posix(), line=1,
                    message="file does not parse as Python",
                    hint="fix the syntax error"))
                continue
            report.files_checked += 1
            report.suppressions.extend(module.suppressions)
            for checker in self.checkers:
                for finding in checker.check(module):
                    if finding.rule in \
                            module.suppressed_rules_on(finding.line):
                        report.suppressed.append(finding)
                    elif finding.baseline_key() in baseline:
                        report.baselined.append(finding)
                    else:
                        report.findings.append(finding)
        report.findings.sort(key=Finding.sort_key)
        report.suppressed.sort(key=Finding.sort_key)
        report.baselined.sort(key=Finding.sort_key)
        return report


# -- baseline files --------------------------------------------------------

BASELINE_HEADER = (
    "# reprolint baseline -- pre-existing findings burned down over time.\n"
    "# One `path|RULE|line` key per line, sorted and deduplicated.\n"
    "# Regenerate with: python scripts/reprolint.py --write-baseline\n")


def load_baseline(path: Path) -> Set[str]:
    """The baseline keys in ``path`` (empty when the file is absent)."""
    if not path.exists():
        return set()
    keys: Set[str] = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.add(line)
    return keys


def format_baseline(findings: Iterable[Finding]) -> str:
    """Render findings as a sorted, deduplicated baseline file body."""
    keys = sorted({finding.baseline_key() for finding in findings})
    body = "".join(f"{key}\n" for key in keys)
    return BASELINE_HEADER + body


def baseline_is_normalised(text: str) -> bool:
    """True when the baseline body is sorted and free of duplicates."""
    entries = [line.strip() for line in text.splitlines()
               if line.strip() and not line.strip().startswith("#")]
    return entries == sorted(set(entries))
