"""Experiment harness reproducing every quantitative claim of the paper.

Each experiment function in :mod:`repro.experiments.experiments` returns a
:class:`~repro.api.report.RunReport` (the unified API's single result
object) whose rows are printed by the corresponding benchmark in
``benchmarks/`` and recorded in ``EXPERIMENTS.md``, which is also the
claim ↔ experiment index.
"""

from repro.api.report import RunReport
from repro.experiments.runner import run_experiment, run_experiment_campaign
from repro.experiments.report import format_table, render_result
from repro.experiments import experiments

__all__ = ["RunReport", "run_experiment", "run_experiment_campaign",
           "format_table", "render_result", "experiments"]
