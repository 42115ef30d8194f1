"""E10 — Introduction.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e10_broker_comparison


def test_e10_broker_comparison(report):
    report(e10_broker_comparison)
