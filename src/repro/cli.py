"""The command line: ``python -m repro <verb>`` (console script ``repro``).

::

    python -m repro scenario --list
    python -m repro scenario --run lossy-network --seed 1 --json
    python -m repro scenario --all --jobs 4 --telemetry --out metrics.json
    python -m repro sweep --list
    python -m repro sweep --demo e13-loss-shards --jobs 4 --out campaign.json
    python -m repro sweep --demo e13-loss-shards --print-spec > sweep.json
    python -m repro fuzz --quick --budget-iters 24 --findings-dir findings/
    python -m repro metrics campaign.json --spans

``--jobs N`` fans a verb's tasks across the N worker processes of a stdlib
pool, opened per run (:mod:`repro.exec`); what is printed and written is
byte-identical at any ``--jobs``.  Exit status: 0 when every invariant
held (``fuzz``: no findings; ``metrics``: the artifact carries telemetry),
1 when one did not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.api.report import RunReport, format_table
from repro.artifact import canonical_json
from repro.exec.backend import FAILURE_KEY, TaskSpec, run_tasks
from repro.exec.campaign import CampaignReport, CampaignRunner
from repro.exec.demo import DEMO_SWEEPS, get_demo_sweep
from repro.exec.sweep import SweepSpec
from repro.fuzz.campaign import FuzzCampaign, FuzzConfig, FuzzReport
from repro.fuzz.generator import QUICK_LIMITS, GeneratorLimits
from repro.fuzz.oracle import OracleSpec
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.runner import ScenarioReport
from repro.scenarios.spec import load_spec_file
from repro.telemetry.recorder import merge_telemetry_dicts
from repro.telemetry.render import render_telemetry

T = TypeVar("T")


class UsageError(Exception):
    """A bad name or file on the command line: exit 2 with one line."""


def positive_int(text: str) -> int:
    """The argparse ``type`` of every count flag: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def positive_float(text: str) -> float:
    """The argparse ``type`` of every seconds flag: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def non_negative_float(text: str) -> float:
    """The argparse ``type`` of every rounds budget: a finite number >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _load(source: str, load: Callable[[], T]) -> T:
    """``load()``, with a missing file, malformed JSON or unknown name in
    ``source`` turned into a :class:`UsageError`."""
    try:
        return load()
    except KeyError as exc:
        raise UsageError(f"{source}: {exc.args[0]}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"{source}: {exc}") from None


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _finish(args: argparse.Namespace, report: Any, summary: str) -> int:
    """End a campaign verb: the report to ``--out``, its summary to stdout."""
    if args.out:
        _write(args.out, report.to_json(indent=2))
    print(report.to_json() if args.json else summary)
    return 0 if report.passed else 1


# ------------------------------------------------------------------ scenario
def render_report(report: ScenarioReport) -> str:
    """Scenario report as text: header, per-phase table, invariants — the
    table and claims of its :meth:`RunReport.from_scenario` view."""
    run = RunReport.from_scenario(report)
    lines = [run.title,
             f"  initial stabilization: "
             f"{'ok' if report.stabilized else 'FAILED'} "
             f"({report.stabilize_rounds} rounds)", ""]
    if run.rows:
        lines.append(format_table(run.headers, run.rows))
    lines.append("")
    lines.append("Invariants:")
    for name, holds in run.claims.items():
        lines.append(f"  [{'PASS' if holds else 'FAIL'}] {name}")
    lines.append("")
    lines.append(f"result: {'PASS' if run.passed else 'FAIL'}")
    return "\n".join(lines)


def _scenario(args: argparse.Namespace) -> int:
    if args.list:
        specs = [factory() for factory in SCENARIOS.values()]
        print(format_table(
            ["scenario", "facade", "subscribers", "phases", "description"],
            [(name, spec.facade, spec.subscribers, len(spec.phases),
              spec.description) for name, spec in zip(SCENARIOS, specs)]))
        return 0
    names: List[str] = list(args.run)
    if args.all:
        names.extend(n for n in SCENARIOS if n not in names)
    if not names and not args.spec:
        raise UsageError("nothing to run: give --run NAME, --all or --spec FILE")
    runs = [(_load(name, lambda: get_scenario(name)), args.seed) for name in names]
    runs += [_load(path, lambda: load_spec_file(path, default_seed=args.seed))
             for path in args.spec]
    tasks = []
    for spec, seed in runs:
        payload: Dict[str, Any] = {"spec": spec.to_dict(), "seed": seed}
        if args.telemetry:
            # The task builds the facade from this spec, so the histograms
            # and spans are recorded inside the run — not bolted on after.
            payload["system"] = (
                spec.system_spec(seed=seed).with_overrides(telemetry=True).to_dict())
        tasks.append(TaskSpec(task_id=spec.name,
                              fn="repro.exec.tasks:run_scenario_task",
                              payload=payload))
    results = list(run_tasks(tasks, jobs=args.jobs))
    reports = [ScenarioReport.from_dict(result["scenario"]) for result in results]
    if args.out:
        # A single report verbatim, or {"reports": [...], "telemetry":
        # <merged>} for several; `python -m repro metrics` renders both.
        artifact: Dict[str, Any] = results[0] if len(results) == 1 else {
            "reports": results,
            "telemetry": merge_telemetry_dicts(r.get("telemetry") for r in results)}
        _write(args.out, canonical_json(artifact))
    if args.json:
        print("\n".join(report.to_json() for report in reports))
    else:
        print("\n\n".join(
            render_report(report) + ("\n\n" + render_telemetry(result["telemetry"])
                                     if result.get("telemetry") else "")
            for report, result in zip(reports, results)))
    return 0 if all(report.passed for report in reports) else 1


# --------------------------------------------------------------------- sweep
def _verdict(report: Dict[str, Any], failure: Optional[Dict[str, Any]]) -> str:
    """One campaign task's verdict: its report's, or its crash record's."""
    if failure is not None:
        return f"FAIL (worker {failure['kind']})"
    return "PASS" if report["passed"] else "FAIL"


def _campaign_summary(report: CampaignReport) -> str:
    rows = []
    for entry in report.tasks:
        scenario = entry.get("report", {}).get("scenario") or {}
        rows.append((entry["task_id"], scenario.get("subscribers_initial", "-"),
                     scenario.get("shards", "-"),
                     len(scenario["phases"]) if scenario else "-",
                     _verdict(entry.get("report", {}), entry.get("failure"))))
    table = format_table(["task", "n", "shards", "phases", "verdict"], rows)
    verdict = "PASS" if report.passed else \
        f"FAIL ({', '.join(report.failed_tasks)})"
    return (f"campaign {report.name!r} (master seed {report.master_seed}, "
            f"{len(report.tasks)} tasks)\n\n{table}\n\nresult: {verdict}")


def _sweep(args: argparse.Namespace) -> int:
    if args.list:
        for name, factory in DEMO_SWEEPS.items():
            blurb = ((factory.__doc__ or "").strip().splitlines() or [""])[0]
            print(f"{name:22s} {len(factory(0).expand()):3d} tasks   {blurb}")
        return 0
    if args.spec:
        sweep = _load(args.spec, lambda: SweepSpec.from_json(Path(args.spec).read_text()))
    elif args.demo:
        sweep = _load(args.demo, lambda: get_demo_sweep(args.demo, seed=args.seed))
    else:
        raise UsageError("nothing to run: give --demo NAME or --spec FILE")
    if args.print_spec:
        print(sweep.to_json(indent=2))
        return 0

    total = len(sweep.expand())
    print(f"sweep {sweep.name!r}: {total} tasks, master seed "
          f"{sweep.master_seed}, jobs={args.jobs}", file=sys.stderr)

    def progress(task: Any, result: Dict[str, Any], done: int, _total: int) -> None:
        print(f"  [{done}/{total}] {task.task_id:40s} "
              f"{_verdict(result, result.get(FAILURE_KEY))}", file=sys.stderr)

    report = CampaignRunner(sweep, jobs=args.jobs,
                            fault_tolerant=args.fault_tolerant).run(progress=progress)
    return _finish(args, report, _campaign_summary(report))


# ---------------------------------------------------------------------- fuzz
def _fuzz_summary(report: FuzzReport) -> str:
    cfg = report.config
    lines = [
        f"fuzz campaign (seed {cfg.seed}): {report.iterations}/"
        f"{cfg.budget_iters} iterations"
        + (" [truncated by --budget-seconds]" if report.truncated else ""),
        f"  coverage: {len(report.coverage)} keys "
        f"({len(report.trail)} discovering runs)",
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


def _fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(seed=args.seed, budget_iters=args.budget_iters,
                        max_findings=args.max_findings,
                        shrink_budget=args.shrink_budget,
                        limits=QUICK_LIMITS if args.quick else GeneratorLimits(),
                        oracle=OracleSpec(max_relegitimize_rounds=args.releg_budget,
                                          max_stabilize_rounds=args.stabilize_budget))

    def progress(done: int, total: int, name: str, status: str, detail: str) -> None:
        if status != "ok":
            print(f"  [{done}/{total}] {name:24s} {status} {detail}".rstrip(),
                  file=sys.stderr)

    report = FuzzCampaign(config, jobs=args.jobs,
                          budget_seconds=args.budget_seconds).run(progress=progress)
    if args.findings_dir:
        for finding in report.findings:
            artifact = finding.corpus_artifact(report.config.seed)
            _write(args.findings_dir / f"{finding.finding_id}.json",
                   canonical_json(artifact, indent=2))
    return _finish(args, report, _fuzz_summary(report))


# ------------------------------------------------------------------- metrics
def _metrics(args: argparse.Namespace) -> int:
    path = args.report
    data = _load(path, lambda: json.loads(
        sys.stdin.read() if path == "-" else Path(path).read_text()))
    if not isinstance(data, dict):
        raise UsageError(f"{path}: not a report object")
    # a run's payload, or the merge a campaign or multi-scenario artifact carries
    payload = data.get("telemetry")
    if not payload:
        print(f"{path}: no telemetry in artifact (was the run built "
              f"with telemetry=True?)", file=sys.stderr)
        return 1
    if args.json:
        print(canonical_json(payload))
    else:
        print(render_telemetry(payload, spans=args.spans))
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    # The shared flags, each defined once: every verb prints --json; the
    # three verbs that run tasks share --seed/--jobs/--out.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true",
                        help="print the report as canonical JSON instead of "
                             "tables")
    runs = argparse.ArgumentParser(add_help=False, parents=[output])
    runs.add_argument("--seed", type=int, default=0,
                      help="master seed (default 0; a --spec file's own seed "
                           "wins); identical seeds give byte-identical output")
    runs.add_argument("--jobs", type=positive_int, default=1,
                      help="worker processes (default 1 = inline; the output "
                           "is byte-identical at any value)")
    runs.add_argument("--out", type=Path, metavar="FILE",
                      help="write the full JSON artifact to FILE: the "
                           "RunReport with its telemetry (scenario), the "
                           "campaign (sweep) or the campaign report (fuzz)")

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(name: str, parent: argparse.ArgumentParser, about: str,
             **defaults: Any) -> argparse.ArgumentParser:
        sub = verbs.add_parser(name, parents=[parent], help=about,
                               description=about)
        sub.set_defaults(**defaults)
        return sub

    scenario = verb("scenario", runs, "run declarative adversarial scenarios "
                    "against the supervised pub-sub system (see repro.scenarios)",
                    handler=_scenario)
    scenario.add_argument("--list", action="store_true",
                          help="list the built-in scenarios and exit")
    scenario.add_argument("--run", metavar="NAME", action="append", default=[],
                          help="run the named scenario (repeatable)")
    scenario.add_argument("--spec", metavar="PATH", action="append", default=[],
                          help="run the ScenarioSpec JSON in PATH (repeatable). "
                               "Accepts a bare spec or a fuzz corpus artifact "
                               "({'spec': ..., 'seed': ...}); an artifact's "
                               "embedded seed overrides --seed so findings "
                               "replay exactly")
    scenario.add_argument("--all", action="store_true",
                          help="run every built-in scenario")
    scenario.add_argument("--telemetry", action="store_true",
                          help="collect latency histograms and phase spans "
                               "(telemetry=True on the system spec) and render "
                               "them after each report")

    sweep = verb("sweep", runs, "expand a declarative parameter sweep over "
                 "the pub-sub system and run it as a campaign across CPU cores "
                 "(see repro.exec)", handler=_sweep)
    source = sweep.add_mutually_exclusive_group()
    source.add_argument("--spec", metavar="FILE",
                        help="run the SweepSpec JSON in FILE")
    source.add_argument("--demo", metavar="NAME",
                        help="run a built-in demo sweep (see --list)")
    sweep.add_argument("--list", action="store_true",
                       help="list the built-in demo sweeps and exit")
    sweep.add_argument("--print-spec", action="store_true",
                       help="print the selected sweep's JSON and exit "
                            "(scaffold for custom --spec files)")
    sweep.add_argument("--fault-tolerant", action="store_true",
                       help="record a crashed task as a structured "
                            "TaskFailure entry in the campaign artifact "
                            "instead of aborting the whole campaign")

    fuzz = verb("fuzz", runs, "adversarial scenario fuzzer: fresh random "
                "specs, with auto-shrink (see repro.fuzz and FUZZING.md); fuzzing is "
                "always fault-tolerant", handler=_fuzz)
    fuzz.add_argument("--budget-iters", type=positive_int, default=64,
                      help="number of generated scenarios to run (default 64)")
    fuzz.add_argument("--budget-seconds", type=positive_float,
                      help="optional wall-clock cutoff (CI smoke); the "
                           "report is marked truncated when it fires and "
                           "reproducibility is best-effort")
    fuzz.add_argument("--max-findings", type=positive_int, default=8,
                      help="stop the campaign after this many distinct "
                           "failure signatures (default 8)")
    fuzz.add_argument("--shrink-budget", type=positive_int, default=120,
                      help="max re-runs the shrinker may spend per finding "
                           "(default 120)")
    fuzz.add_argument("--releg-budget", type=non_negative_float, metavar="ROUNDS",
                      help="flag any phase whose relegitimacy takes more "
                           "than this many rounds (pathological-"
                           "stabilization oracle; default: off)")
    fuzz.add_argument("--stabilize-budget", type=non_negative_float, metavar="ROUNDS",
                      help="flag runs whose initial stabilization exceeds "
                           "this many rounds (default: off)")
    fuzz.add_argument("--quick", action="store_true",
                      help="fuzz a sized-down fault space (sub-second "
                           "specs) — the CI smoke configuration")
    fuzz.add_argument("--findings-dir", type=Path, metavar="DIR",
                      help="write each shrunk finding as a standalone "
                           "corpus-ready JSON artifact into DIR")

    metrics = verb("metrics", output, "render the telemetry of a RunReport or "
                   "CampaignReport JSON artifact (a campaign's is merged across "
                   "its tasks)", handler=_metrics)
    metrics.add_argument("report", help="RunReport or CampaignReport JSON "
                                        "file ('-' reads stdin)")
    metrics.add_argument("--spans", action="store_true",
                         help="also list the raw span timeline")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.handler(args))
    except UsageError as exc:
        print(f"repro {args.verb}: {exc}", file=sys.stderr)
        return 2
