"""Adversarial initial states and scattered publications, used by tests and
experiments.  Disruptions during a run (churn, crashes, live publications)
are :class:`~repro.scenarios.spec.PhaseSpec` phases."""

from repro.workloads.initial_states import (
    AdversarialConfig,
    build_adversarial_system,
    corrupt_supervisor_database,
    inject_corrupted_messages,
    scramble_topic_views,
)
from repro.workloads.publications import generate_payloads, scatter_publications

__all__ = [
    "AdversarialConfig",
    "build_adversarial_system",
    "corrupt_supervisor_database",
    "inject_corrupted_messages",
    "scramble_topic_views",
    "generate_payloads",
    "scatter_publications",
]
