"""E8 — Section 1.3.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e8_congestion


def test_e8_congestion(report):
    report(e8_congestion)
