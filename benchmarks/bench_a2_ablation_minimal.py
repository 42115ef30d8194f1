"""A2 — Ablation.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import a2_ablation_minimal_request


def test_a2_ablation_minimal(report):
    report(a2_ablation_minimal_request)
