"""E9 — Section 3.3.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e9_failures


def test_e9_failures(report):
    report(e9_failures)
