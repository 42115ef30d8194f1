"""Analysis helpers: legitimacy predicates and graph metrics."""

from repro.analysis.convergence import (
    LegitimacyReport,
    ring_legitimate,
    publications_converged,
    count_correct_labels,
    edge_set_signature,
)
from repro.analysis.graph_metrics import (
    degree_statistics,
    diameter,
    routing_congestion,
    position_balance,
)

__all__ = [
    "LegitimacyReport",
    "ring_legitimate",
    "publications_converged",
    "count_correct_labels",
    "edge_set_signature",
    "degree_statistics",
    "diameter",
    "routing_congestion",
    "position_balance",
]
