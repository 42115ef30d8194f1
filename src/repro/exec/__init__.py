"""Parallel execution layer: backends, sweeps, campaigns.

The scaling substrate every driver shares.  Three pieces:

* **Backends** (:mod:`repro.exec.backend`) — run named, JSON-payloaded
  tasks either inline (:class:`InlineBackend`) or across CPU cores with
  per-task fresh-interpreter isolation (:class:`ProcessPoolBackend`).
  Every ``--jobs N`` flag in the tree (``generate_experiments_md`` and the
  ``scenario``, ``sweep`` and ``fuzz`` verbs of ``python -m repro``) maps
  onto these two backends, and results are byte-identical either way:
  both canonicalize through the same JSON boundary.
* **Sweeps** (:mod:`repro.exec.sweep`) — a declarative
  :class:`SweepSpec` parameter grid (scenario × shards × n_nodes ×
  loss_rate × seed replicates) over a base
  :class:`~repro.api.spec.SystemSpec`, with lossless JSON round-trip and
  deterministic, coordinate-derived per-task seeds.
* **Campaigns** (:mod:`repro.exec.campaign`) — :class:`CampaignRunner`
  fans a sweep out through a backend, streams progress, and merges the
  per-task :class:`~repro.api.report.RunReport`\\ s into one
  byte-reproducible :class:`CampaignReport` artifact.

CLI: ``python -m repro sweep``.
"""

from repro.exec.backend import (
    FAILURE_KEY,
    ExecBackend,
    InlineBackend,
    ProcessPoolBackend,
    TaskFailure,
    TaskSpec,
    backend_for_jobs,
    failure_from_result,
    is_failure_result,
)
from repro.exec.campaign import CampaignReport, CampaignRunner
from repro.exec.demo import DEMO_SWEEPS, get_demo_sweep
from repro.exec.sweep import SweepSpec, SweepTask

__all__ = [
    "ExecBackend",
    "FAILURE_KEY",
    "InlineBackend",
    "ProcessPoolBackend",
    "TaskFailure",
    "TaskSpec",
    "backend_for_jobs",
    "failure_from_result",
    "is_failure_result",
    "SweepSpec",
    "SweepTask",
    "CampaignReport",
    "CampaignRunner",
    "DEMO_SWEEPS",
    "get_demo_sweep",
]
