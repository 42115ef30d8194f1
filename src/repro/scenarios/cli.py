"""Command-line runner for the scenario library.

::

    python -m repro.scenarios --list
    python -m repro.scenarios --run lossy-network --seed 1
    python -m repro.scenarios --run rolling-partition --json
    python -m repro.scenarios --all --seed 3
    python -m repro.scenarios --all --jobs 4          # whole library, 4 cores

Also installed as the ``repro-scenarios`` console script.  ``--jobs N``
fans the requested scenarios out across N worker processes through the
:mod:`repro.exec` backends; reports (table and ``--json`` alike) are
byte-identical to a serial run.  Exit status is 0 iff every invariant of
every requested scenario held.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from repro.api.report import RunReport
from repro.exec.backend import TaskSpec, backend_for_jobs
from repro.experiments.report import format_table
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.runner import ScenarioReport
from repro.scenarios.spec import ScenarioSpec


def _list_scenarios() -> str:
    rows = []
    for name, factory in SCENARIOS.items():
        spec = factory()
        rows.append((name, spec.facade, spec.subscribers, len(spec.phases),
                     spec.description))
    return format_table(
        ["scenario", "facade", "subscribers", "phases", "description"], rows)


def render_report(report: ScenarioReport) -> str:
    """Human-readable scenario report: header, per-phase table, invariants.

    Rendering goes through the unified :class:`~repro.api.report.RunReport`
    view (:meth:`RunReport.from_scenario`), so the CLI prints exactly the
    table/claims any other driver of the run report would see.
    """
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="Run declarative adversarial scenarios against the "
                    "supervised pub-sub system (see repro.scenarios).")
    parser.add_argument("--list", action="store_true",
                        help="list the built-in scenarios and exit")
    parser.add_argument("--run", metavar="NAME", action="append", default=[],
                        help="run the named scenario (repeatable)")
    parser.add_argument("--spec", metavar="PATH", action="append", default=[],
                        help="run the ScenarioSpec JSON in PATH (repeatable). "
                             "Accepts a bare spec or a repro-fuzz corpus "
                             "artifact ({'spec': ..., 'seed': ...}); an "
                             "artifact's embedded seed overrides --seed so "
                             "findings replay exactly")
    parser.add_argument("--all", action="store_true",
                        help="run every built-in scenario")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0); identical seeds give "
                             "byte-identical --json output")
    parser.add_argument("--json", action="store_true",
                        help="emit the ScenarioReport as canonical JSON "
                             "instead of a table")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run scenarios across N worker processes "
                             "(default 1 = inline; reports are byte-identical "
                             "either way)")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect latency histograms and phase spans "
                             "(telemetry=True on the system spec) and render "
                             "them after each report")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the full RunReport JSON (including the "
                             "telemetry payload; render it with "
                             "`python -m repro.telemetry PATH`)")
    return parser


def load_spec_file(path: str, default_seed: int = 0
                   ) -> "Tuple[ScenarioSpec, int]":
    """Load a ``--spec`` file: a bare :class:`ScenarioSpec` dict, or a
    corpus/finding artifact wrapping one under ``"spec"`` alongside the
    ``seed`` the failure was found with.  Returns the spec plus the seed the
    replay must use.  An older artifact's ``"scheduler"`` key is ignored:
    the engine has one event queue."""
    with open(path) as handle:
        data = json.load(handle)
    if "spec" in data and "phases" not in data:
        spec = ScenarioSpec.from_dict(data["spec"])
        return spec, int(data.get("seed", default_seed))
    return ScenarioSpec.from_dict(data), default_seed


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print(_list_scenarios())
        return 0
    names: List[str] = list(args.run)
    if args.all:
        names.extend(n for n in SCENARIOS if n not in names)
    if not names and not args.spec:
        build_parser().print_help()
        return 2
    try:
        runs = [(get_scenario(name), args.seed) for name in names]
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    for path in args.spec:
        try:
            runs.append(load_spec_file(path, default_seed=args.seed))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot load scenario spec {path!r}: {exc}",
                  file=sys.stderr)
            return 2
    # Every run goes through the execution layer: --jobs 1 stays inline,
    # --jobs N uses one fresh worker process per scenario.  Both paths
    # canonicalize reports through the same JSON boundary, so the printed
    # output is byte-identical regardless of the job count.
    tasks = []
    for spec, seed in runs:
        payload = {"spec": spec.to_dict(), "seed": seed}
        if args.telemetry:
            # The worker builds the facade from this spec, so the histograms
            # and spans are recorded inside the run — not bolted on after.
            payload["system"] = (
                spec.system_spec(seed=seed).with_overrides(telemetry=True).to_dict())
        tasks.append(TaskSpec(task_id=spec.name,
                              fn="repro.exec.tasks:run_scenario_task",
                              payload=payload))
    results = backend_for_jobs(max(args.jobs, 1)).run(tasks)
    all_passed = True
    outputs: List[str] = []
    for result in results:
        report = ScenarioReport.from_dict(result["scenario"])
        all_passed &= report.passed
        if args.json:
            outputs.append(report.to_json())
        else:
            text = render_report(report)
            if result.get("telemetry"):
                from repro.telemetry.cli import render_telemetry
                text += "\n\n" + render_telemetry(result["telemetry"])
            outputs.append(text)
    if args.metrics_out:
        _write_metrics(args.metrics_out, results)
    print("\n\n".join(outputs) if not args.json else "\n".join(outputs))
    return 0 if all_passed else 1


def _write_metrics(path: str, results: List[dict]) -> None:
    """Canonical RunReport JSON artifact: a single report verbatim, or
    ``{"reports": [...], "telemetry": <merged>}`` for multi-scenario runs —
    both shapes render with ``python -m repro.telemetry``."""
    import json

    from repro.telemetry.recorder import merge_telemetry_dicts

    if len(results) == 1:
        artifact: dict = results[0]
    else:
        artifact = {"reports": list(results),
                    "telemetry": merge_telemetry_dicts(
                        result.get("telemetry") for result in results)}
    with open(path, "w") as handle:
        json.dump(artifact, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
