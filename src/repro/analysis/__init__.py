"""Analysis helpers: the legitimacy predicates here, and E1/E7/E8's structural
metrics (degrees, diameter, congestion, balance) in :mod:`repro.analysis.graph_metrics`."""

from repro.analysis.convergence import (
    LegitimacyReport,
    ring_legitimate,
    publications_converged,
    edge_set_signature,
)

__all__ = [
    "LegitimacyReport",
    "ring_legitimate",
    "publications_converged",
    "edge_set_signature",
]
