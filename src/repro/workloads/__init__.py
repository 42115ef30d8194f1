"""Adversarial initial states (:mod:`~repro.workloads.initial_states`) and
scattered publications (:mod:`~repro.workloads.publications`), used by tests
and experiments.  Disruptions during a run (churn, crashes, live publications)
are :class:`~repro.scenarios.spec.PhaseSpec` phases."""
