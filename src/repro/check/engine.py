"""The check engine: file discovery, rule execution, pragma filtering, and
the deterministic result object the CLI renders.

The engine parses every target file once, runs each rule's per-file pass,
then the cross-file ``finalize`` passes over the whole project, and filters
the raw findings through line pragmas.  All outputs are
sorted, so two runs over the same tree produce byte-identical JSON — the
checker holds itself to the discipline it enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.check.context import FileContext, ProjectContext
from repro.check.findings import Finding
from repro.check.pragmas import is_suppressed
from repro.check.rules import default_rules
from repro.check.rules.base import Rule

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache",
                       "build", "dist"})


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Sorted unique ``.py`` files under ``paths`` (files pass through)."""
    out = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            out.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not SKIP_DIRS & set(candidate.parts):
                    out.add(candidate.resolve())
    return sorted(out)


@dataclass
class CheckResult:
    """Everything one engine run produced."""

    root: str
    files_checked: int
    rules: List[str]
    findings: List[Finding]
    suppressed: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, Any]:
        """JSON payload of ``repro-check --json``."""
        return {
            "version": 1,
            "root": self.root,
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts_by_rule(),
            "suppressed": self.suppressed,
            "parse_errors": list(self.parse_errors),
            "clean": self.clean,
        }


class CheckEngine:
    """Run a rule set over a file tree with pragma filtering."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        self.rules: List[Rule] = (list(rules) if rules is not None
                                  else default_rules())

    def run(self, paths: Sequence[Path], root: Optional[Path] = None
            ) -> CheckResult:
        paths = [Path(p) for p in paths]
        if root is None:
            root = paths[0] if paths and paths[0].is_dir() else Path.cwd()
        files = iter_python_files(paths)

        contexts: List[FileContext] = []
        parse_errors: List[str] = []
        for path in files:
            try:
                contexts.append(FileContext.parse(path, root))
            except SyntaxError as exc:
                parse_errors.append(f"{path}: {exc.msg} (line {exc.lineno})")
        project = ProjectContext(contexts)

        raw: List[Finding] = []
        for rule in self.rules:
            for ctx in contexts:
                raw.extend(rule.check_file(ctx))
            raw.extend(rule.finalize(project))

        pragma_index = {ctx.relpath: ctx.pragmas for ctx in contexts}
        visible: List[Finding] = []
        suppressed = 0
        for finding in sorted(raw, key=Finding.sort_key):
            if is_suppressed(pragma_index.get(finding.path, {}), finding.rule,
                             finding.line):
                suppressed += 1
            else:
                visible.append(finding)

        return CheckResult(
            root=str(root),
            files_checked=len(contexts),
            rules=sorted(rule.id for rule in self.rules),
            findings=visible,
            suppressed=suppressed,
            parse_errors=parse_errors,
        )
