"""E1 — Figure 1 / Lemma 3.

Regenerates the corresponding table/series from EXPERIMENTS.md (the experiment index)
and asserts the reproduced claims hold.
"""

from repro.experiments.experiments import e1_topology


def test_e1_topology(report):
    report(e1_topology)
