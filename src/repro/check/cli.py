"""``repro-check`` — the determinism & invariant static-analysis gate.

Usage::

    repro-check src/repro                 # human output, exit 1 on findings
    repro-check src/repro --json          # machine-readable findings
    repro-check --list-rules              # what is enforced, one line each

Findings can be waived per line with ``# repro: allow[rule-id]`` pragmas.
Exit codes: 0 — clean (after pragmas), 1 — findings, 2 — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.check.engine import CheckEngine, CheckResult
from repro.check.rules import available_rules, default_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to scan "
                             "(default: src/repro if present, else .)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full result as canonical JSON")
    parser.add_argument("--rules",
                        help="comma-separated rule ids to run "
                             "(default: all registered rules)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def _resolve_paths(raw: Sequence[str]) -> List[Path]:
    if raw:
        return [Path(p) for p in raw]
    default = Path("src/repro")
    return [default if default.is_dir() else Path(".")]


def _select_rules(spec: Optional[str]) -> List:
    rules = default_rules()
    if not spec:
        return rules
    wanted = {part.strip() for part in spec.split(",") if part.strip()}
    known = {rule.id for rule in rules}
    unknown = wanted - known
    if unknown:
        raise SystemExit(
            f"repro-check: unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})")
    return [rule for rule in rules if rule.id in wanted]


def _render_human(result: CheckResult) -> str:
    lines = [finding.render() for finding in result.findings]
    for error in result.parse_errors:
        lines.append(f"parse error: {error}")
    counts = result.counts_by_rule()
    tally = ", ".join(f"{rule}={count}" for rule, count in counts.items())
    lines.append(
        f"checked {result.files_checked} file(s): "
        f"{len(result.findings)} finding(s)"
        + (f" ({tally})" if tally else "")
        + (f", {result.suppressed} suppressed by pragma"
           if result.suppressed else ""))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in available_rules():
            print(f"{cls.id}: {cls.title}")
        return 0

    paths = _resolve_paths(args.paths)
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro-check: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    result = CheckEngine(rules=_select_rules(args.rules)).run(paths)
    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True, indent=2))
    else:
        print(_render_human(result))
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
