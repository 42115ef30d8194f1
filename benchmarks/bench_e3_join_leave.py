"""E3 — Theorem 7 / Section 4.1.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e3_join_leave


def test_e3_join_leave(report):
    report(e3_join_leave)
