"""Analysis helpers: the legitimacy predicates.  E1/E7/E8's structural metrics are imported
by name from :mod:`repro.analysis.graph_metrics`: it loads ``networkx``, this package does not."""

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
