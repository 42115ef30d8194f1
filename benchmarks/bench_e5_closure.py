"""E5 — Theorem 13.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e5_closure


def test_e5_closure(report):
    report(e5_closure)
