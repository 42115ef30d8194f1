"""E2 — Theorem 5.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e2_supervisor_load


def test_e2_supervisor_load(report):
    report(e2_supervisor_load)
