"""Parallel execution layer: the task runner, sweeps, campaigns.

The scaling substrate every driver shares.  Three pieces:

* **The task runner** (:mod:`repro.exec.backend`) — :func:`run_tasks`
  streams the results of named, JSON-payloaded tasks in submission order,
  run inline (``jobs=1``) or on the worker processes of a stdlib pool,
  opened per run (``jobs=N``).  Every ``--jobs N`` flag in the tree
  (``generate_experiments_md`` and the ``scenario``, ``sweep`` and
  ``fuzz`` verbs of ``python -m repro``) maps onto it, and results are
  byte-identical at any job count: every task goes through one per-task
  function, :func:`run_task`, which canonicalizes its result through the
  same JSON boundary.
* **Sweeps** (:mod:`repro.exec.sweep`) — a declarative
  :class:`SweepSpec` parameter grid (scenario × shards × n_nodes ×
  loss_rate × seed replicates) over a base
  :class:`~repro.api.spec.SystemSpec`, with lossless JSON round-trip and
  deterministic, coordinate-derived per-task seeds.
* **Campaigns** (:mod:`repro.exec.campaign`) — :class:`CampaignRunner`
  fans a sweep out through the task runner, reports progress in sweep
  order, and merges the per-task :class:`~repro.api.report.RunReport`\\ s
  into one byte-reproducible :class:`CampaignReport` artifact.

CLI: ``python -m repro sweep``.
"""

from repro.exec.backend import (
    FAILURE_KEY,
    TaskFailure,
    TaskSpec,
    failure_from_result,
    is_failure_result,
    run_task,
    run_tasks,
)
from repro.exec.campaign import CampaignReport, CampaignRunner
from repro.exec.demo import DEMO_SWEEPS, get_demo_sweep
from repro.exec.sweep import SweepSpec, SweepTask

__all__ = [
    "FAILURE_KEY",
    "TaskFailure",
    "TaskSpec",
    "failure_from_result",
    "is_failure_result",
    "run_task",
    "run_tasks",
    "SweepSpec",
    "SweepTask",
    "CampaignReport",
    "CampaignRunner",
    "DEMO_SWEEPS",
    "get_demo_sweep",
]
