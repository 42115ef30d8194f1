"""E7 — Section 4.3.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e7_flooding


def test_e7_flooding(report):
    report(e7_flooding)
