"""A3 — Ablation.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import a3_ablation_flooding


def test_a3_ablation_flooding(report):
    report(a3_ablation_flooding)
