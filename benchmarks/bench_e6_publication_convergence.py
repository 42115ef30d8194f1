"""E6 — Theorem 17/23.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e6_publication_convergence


def test_e6_publication_convergence(report):
    report(e6_publication_convergence)
