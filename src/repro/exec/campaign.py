"""Fan a :class:`~repro.exec.sweep.SweepSpec` out and merge the results.

:class:`CampaignRunner` expands a sweep into tasks, runs them through
:func:`~repro.exec.backend.run_tasks` (inline, or on the worker processes
of a stdlib pool, opened per run — ``--jobs N``), reports progress per
task in sweep order, and merges every task's
:class:`~repro.api.report.RunReport` into one :class:`CampaignReport`.

The campaign artifact, written by the artifact codec (:mod:`repro.artifact`),
is **byte-reproducible**: same sweep + same master seed ⇒ identical
``to_json`` bytes, at any ``--jobs`` value.  Three rules make that hold:
per-task seeds are derived from coordinates (not schedule), every result
crosses the task runner's canonical JSON boundary (so inline and pooled runs
agree on structure), and wall-clock values are scrubbed from the
merged reports (walls are streamed to the progress callback instead —
they belong to the console, not the artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.artifact import Artifact
from repro.exec.backend import (
    TaskSpec,
    failure_from_result,
    is_failure_result,
    run_tasks,
)
from repro.exec.sweep import SweepSpec, SweepTask

#: ``progress(task, report_dict, done, total)`` with ``task`` a
#: :class:`SweepTask`; invoked in sweep order.
CampaignProgressFn = Callable[[SweepTask, Dict[str, Any], int, int], None]

#: Dotted reference of the task function every sweep point, ``scenario``
#: verb run, fuzz case and shrink re-check runs.
SCENARIO_TASK_FN = "repro.exec.tasks:run_scenario_task"


@dataclass
class CampaignReport(Artifact, derived=("passed",), omit_none=("telemetry",)):
    """Merged result of one campaign: the sweep, and one entry per task
    (axis coordinates + derived seed + the task's full ``RunReport`` dict).

    It contains no wall-clock values, so identical campaigns produce
    identical ``to_json`` bytes.
    """

    name: str
    master_seed: int
    sweep: Dict[str, Any]
    tasks: List[Dict[str, Any]] = field(default_factory=list)
    schema: int = 1
    #: cluster-wide telemetry merged across every task's RunReport
    #: (histograms add exactly, span summaries aggregate; see
    #: :func:`repro.telemetry.recorder.merge_telemetry_dicts`) — ``None``
    #: for campaigns run without ``telemetry=True`` on the sweep base, so
    #: their artifacts keep the historical byte shape.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def passed(self) -> bool:
        return all(self.claims().values())

    @property
    def failed_tasks(self) -> List[str]:
        return [task_id for task_id, ok in self.claims().items() if not ok]

    def claims(self) -> Dict[str, bool]:
        """Flat ``task_id -> all invariants hold`` map.  A task that
        crashed (a ``"failure"`` entry instead of a ``"report"``) never
        passes: an unverifiable invariant is a failed claim."""
        return {entry["task_id"]: ("report" in entry
                                   and bool(entry["report"]["passed"]))
                for entry in self.tasks}


class CampaignRunner:
    """Expand a sweep, fan its tasks out, merge the reports."""

    def __init__(self, sweep: SweepSpec, jobs: int = 1,
                 fault_tolerant: bool = False) -> None:
        self.sweep = sweep
        self.jobs = jobs
        self.fault_tolerant = fault_tolerant

    def task_specs(self, tasks: List[SweepTask]) -> List[TaskSpec]:
        """The runner tasks this campaign dispatches, in sweep order."""
        specs: List[TaskSpec] = []
        for task in tasks:
            scenario = self.sweep.scenario_for(task)
            specs.append(TaskSpec(
                task_id=task.task_id,
                fn=SCENARIO_TASK_FN,
                payload={
                    "spec": scenario.to_dict(),
                    "system": self.sweep.system_for(task, scenario).to_dict(),
                    "seed": task.seed,
                }))
        return specs

    def run(self, progress: Optional[CampaignProgressFn] = None) -> CampaignReport:
        tasks = self.sweep.expand()
        results = run_tasks(self.task_specs(tasks), jobs=self.jobs,
                            fault_tolerant=self.fault_tolerant)
        entries = []
        for done, (task, report) in enumerate(zip(tasks, results), 1):
            if progress is not None:
                progress(task, report, done, len(tasks))
            if is_failure_result(report):
                # fault_tolerant absorbed a task's crash: record the
                # structured failure in the task's slot instead of aborting
                # the whole campaign.
                entries.append({**task.to_dict(),
                                "failure": failure_from_result(report).to_dict()})
                continue
            report = dict(report)
            # Walls are machine noise; the artifact must be byte-reproducible.
            report["wall_seconds"] = None
            entries.append({**task.to_dict(), "report": report})
        # Entries arrive in sweep order at any job count, so the
        # merge order is fixed and the merged block is byte-identical at any
        # --jobs value; it is None (no key at all) without telemetry.
        from repro.telemetry.recorder import merge_telemetry_dicts
        telemetry = merge_telemetry_dicts(
            entry["report"].get("telemetry") for entry in entries
            if "report" in entry)
        return CampaignReport(name=self.sweep.name,
                              master_seed=self.sweep.master_seed,
                              sweep=self.sweep.to_dict(), tasks=entries,
                              telemetry=telemetry)
