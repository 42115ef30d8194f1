"""Workload and adversarial-state generators used by tests and experiments."""

from repro.workloads.initial_states import (
    AdversarialConfig,
    build_adversarial_system,
    corrupt_supervisor_database,
    inject_corrupted_messages,
    scramble_topic_views,
)
from repro.workloads.churn import ChurnEvent, ChurnSchedule, apply_churn
from repro.workloads.publications import (
    generate_payloads,
    scatter_publications,
    publish_stream,
)

__all__ = [
    "AdversarialConfig",
    "build_adversarial_system",
    "corrupt_supervisor_database",
    "inject_corrupted_messages",
    "scramble_topic_views",
    "ChurnEvent",
    "ChurnSchedule",
    "apply_churn",
    "generate_payloads",
    "scatter_publications",
    "publish_stream",
]
