"""Experiment result records and the experiment runners.

The result type of the experiment harness is
:class:`~repro.api.report.RunReport` (the unified API's single result
object).  :func:`run_experiment` runs one experiment in-process;
:func:`run_experiment_campaign` fans any subset of
:data:`~repro.experiments.experiments.ALL_EXPERIMENTS` out through
:func:`repro.exec.backend.run_tasks` (``jobs=1`` inline, ``jobs>1`` the
worker processes of a stdlib pool, opened per run) with byte-identical
reports at any job count.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence

from repro.api.report import RunReport


def run_experiment(fn: Callable[..., RunReport], *args, **kwargs) -> RunReport:
    """Run an experiment function and stamp its wall-clock duration on the
    report's first-class :attr:`~repro.api.report.RunReport.wall_seconds`."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    if result.wall_seconds is None:
        result.wall_seconds = round(time.perf_counter() - start, 3)
    return result


def run_experiment_campaign(keys: Optional[Sequence[str]] = None,
                            jobs: int = 1,
                            progress=None) -> Dict[str, RunReport]:
    """Run experiments (default: all of ``ALL_EXPERIMENTS``) as a campaign
    through :func:`repro.exec.backend.run_tasks` and return
    ``key -> RunReport`` in request order.

    ``jobs=1`` runs inline, ``jobs>1`` fans out across the worker processes
    of a stdlib pool, opened per run — either way every report crosses the
    task runner's canonical JSON boundary, so the returned reports (and
    anything rendered from them, e.g. EXPERIMENTS.md) are byte-identical
    at any job count.  ``progress`` is an optional
    ``callable(key, report, done, total)`` called in request order; only
    its wall times vary between runs.
    """
    from repro.exec.backend import TaskSpec, run_tasks
    from repro.experiments.experiments import ALL_EXPERIMENTS

    selected = list(keys) if keys is not None else list(ALL_EXPERIMENTS)
    unknown = [key for key in selected if key not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; "
                       f"known: {', '.join(ALL_EXPERIMENTS)}")
    tasks = [TaskSpec(task_id=key, fn="repro.exec.tasks:run_experiment_task",
                      payload={"experiment": key}) for key in selected]
    results = run_tasks(tasks, jobs=jobs)
    reports: Dict[str, RunReport] = {}
    for done, (key, result) in enumerate(zip(selected, results), 1):
        reports[key] = RunReport.from_dict(result)
        if progress is not None:
            progress(key, reports[key], done, len(selected))
    return reports
