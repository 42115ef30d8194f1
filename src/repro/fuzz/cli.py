"""Command-line fuzzer: ``python -m repro.fuzz`` / ``repro-fuzz``.

::

    repro-fuzz --budget-iters 64 --seed 0 --jobs 4
    repro-fuzz --budget-iters 24 --quick --budget-seconds 60 \\
               --out fuzz-report.json --findings-dir findings/
    repro-fuzz --budget-iters 16 --releg-budget 40 --json

Exit status: 0 when the campaign produced no findings, 1 when it did, 2 on
usage errors.  With a pure iteration budget the report (and every finding
artifact) is byte-reproducible for a given ``--seed`` at any ``--jobs``
value; ``--budget-seconds`` adds a wall-clock cutoff for CI smoke jobs and
marks the report ``truncated`` when it fires.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.fuzz.campaign import FuzzCampaign, FuzzConfig, FuzzReport
from repro.fuzz.generator import GeneratorLimits
from repro.fuzz.oracle import OracleSpec

#: The sized-down fault space ``--quick`` fuzzes: specs run in a fraction
#: of a second each, so a ~60 s CI smoke job still gets real coverage.
QUICK_LIMITS = GeneratorLimits(
    max_phases=2, min_subscribers=6, max_subscribers=10, max_topics=2,
    max_shards=3, min_rounds=6.0, max_rounds=12.0, settle_rounds=200.0,
    max_churn_ops=3, max_publications=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description="Coverage-guided adversarial scenario fuzzer with "
                    "auto-shrink (see repro.fuzz and FUZZING.md).")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0); identical seeds and "
                             "iteration budgets give byte-identical reports")
    parser.add_argument("--budget-iters", type=int, default=64,
                        help="number of generated scenarios to run (default "
                             "64)")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="optional wall-clock cutoff (CI smoke); the "
                             "report is marked truncated when it fires and "
                             "reproducibility is best-effort")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1; the report is "
                             "byte-identical at any value)")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="specs generated between coverage-feedback "
                             "points (default 8; part of the reproducible "
                             "schedule, NOT tied to --jobs)")
    parser.add_argument("--max-findings", type=int, default=8,
                        help="stop the campaign after this many distinct "
                             "failure signatures (default 8)")
    parser.add_argument("--shrink-budget", type=int, default=120,
                        help="max re-runs the shrinker may spend per finding "
                             "(default 120)")
    parser.add_argument("--releg-budget", type=float, default=None,
                        metavar="ROUNDS",
                        help="flag any phase whose relegitimacy takes more "
                             "than this many rounds (pathological-"
                             "stabilization oracle; default: off)")
    parser.add_argument("--stabilize-budget", type=float, default=None,
                        metavar="ROUNDS",
                        help="flag runs whose initial stabilization exceeds "
                             "this many rounds (default: off)")
    parser.add_argument("--quick", action="store_true",
                        help="fuzz a sized-down fault space (sub-second "
                             "specs) — the CI smoke configuration")
    parser.add_argument("--task-timeout", type=float, default=300.0,
                        help="kill any worker running longer than this many "
                             "seconds (default 300; fuzzing is always "
                             "fault-tolerant)")
    parser.add_argument("--retries", type=int, default=1,
                        help="re-run a crashed/hung worker this many times "
                             "before recording the failure (default 1)")
    parser.add_argument("--out", type=Path, metavar="FILE", default=None,
                        help="write the campaign report JSON to FILE")
    parser.add_argument("--findings-dir", type=Path, metavar="DIR",
                        default=None,
                        help="write each shrunk finding as a standalone "
                             "corpus-ready JSON artifact into DIR")
    parser.add_argument("--json", action="store_true",
                        help="print the campaign report as canonical JSON "
                             "instead of the summary")
    return parser


def _summary(report: FuzzReport) -> str:
    cfg = report.config
    lines = [
        f"fuzz campaign (seed {cfg.seed}): {report.iterations}/"
        f"{cfg.budget_iters} iterations"
        + (" [truncated by --budget-seconds]" if report.truncated else ""),
        f"  coverage: {len(report.coverage or [])} keys "
        f"({len(report.trail)} discovering runs, pool {report.pool_size})",
        f"  findings: {len(report.findings)}",
    ]
    for finding in report.findings:
        shrunk = finding.shrunk_spec or finding.spec
        lines.append(
            f"    [{finding.finding_id}] {finding.kind} "
            f"x{finding.occurrences} @iter {finding.iteration}: "
            f"{'; '.join(finding.signature)}")
        lines.append(
            f"        shrunk to {len(shrunk['phases'])} phase(s), "
            f"{shrunk['subscribers']} subscribers "
            f"({finding.shrink_steps} steps, {finding.shrink_evals} re-runs"
            + (", budget exhausted" if finding.shrink_budget_exhausted
               else "") + ")")
    lines.append(f"result: {'PASS' if report.passed else 'FINDINGS'}")
    return "\n".join(lines)


def _write_findings(report: FuzzReport, directory: Path) -> List[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for finding in report.findings:
        path = directory / f"{finding.finding_id}.json"
        artifact = finding.corpus_artifact(report.config.seed)
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.budget_iters < 1 or args.batch_size < 1:
        print("--budget-iters and --batch-size must be >= 1", file=sys.stderr)
        return 2

    limits = QUICK_LIMITS if args.quick else GeneratorLimits()
    oracle = OracleSpec(max_relegitimize_rounds=args.releg_budget,
                        max_stabilize_rounds=args.stabilize_budget)
    config = FuzzConfig(seed=args.seed, budget_iters=args.budget_iters,
                        batch_size=args.batch_size,
                        max_findings=max(args.max_findings, 1),
                        shrink_budget=max(args.shrink_budget, 1),
                        limits=limits, oracle=oracle)

    def progress(done: int, total: int, name: str, status: str,
                 detail: str) -> None:
        if status != "ok":
            print(f"  [{done}/{total}] {name:24s} {status} {detail}".rstrip(),
                  file=sys.stderr)

    campaign = FuzzCampaign(config, jobs=max(args.jobs, 1),
                            task_timeout=args.task_timeout,
                            retries=max(args.retries, 0),
                            budget_seconds=args.budget_seconds)
    report = campaign.run(progress=progress)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report.to_json(indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.findings_dir:
        for path in _write_findings(report, args.findings_dir):
            print(f"wrote {path}", file=sys.stderr)
    print(report.to_json() if args.json else _summary(report))
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
