"""A1 — Ablation.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import a1_ablation_integration


def test_a1_ablation_integration(report):
    report(a1_ablation_integration)
