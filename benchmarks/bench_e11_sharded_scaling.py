"""E11 — sharded supervisor cluster scaling (beyond the paper).

Runs the same multi-topic workload against the single-supervisor topology and
against :class:`repro.SupervisedPubSub` with K = 1, 2, 4 shards, and
asserts that K=4 cuts the hotspot supervisor's request load to at most 40 %
of the single-supervisor baseline.
"""

from repro.experiments.experiments import e11_sharded_scaling


def test_e11_sharded_scaling(report):
    report(e11_sharded_scaling)
