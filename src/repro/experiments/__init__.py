"""Experiment harness reproducing every quantitative claim of the paper.

Each experiment function in :mod:`repro.experiments.experiments` returns a
:class:`~repro.api.report.RunReport` (the unified API's single result
object); ``scripts/generate_experiments_md.py`` records every report's rows
and checked claims in ``EXPERIMENTS.md``, which is also the claim ↔
experiment index.
"""

from repro.api.report import RunReport, format_table
from repro.experiments.runner import run_experiment, run_experiment_campaign
from repro.experiments import experiments

__all__ = ["RunReport", "run_experiment", "run_experiment_campaign",
           "format_table", "experiments"]
