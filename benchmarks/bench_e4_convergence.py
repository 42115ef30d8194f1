"""E4 — Theorem 8.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e4_convergence


def test_e4_convergence(report):
    report(e4_convergence)
