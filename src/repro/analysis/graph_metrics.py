"""Structural graph metrics: degrees, diameter, congestion and balance.

These metrics back experiments E1 (skip-ring structure), E7 (flooding depth)
and E8 (congestion/balance comparison against Chord and skip graphs).  All of
them operate on plain :class:`networkx.Graph` objects plus, for the balance
metric, a list of ring positions in ``[0, 1)``.  Importing this module loads
``networkx`` (the ``analysis`` extra); nothing the protocol imports does.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import networkx as nx


@dataclass
class DegreeStats:
    minimum: int
    maximum: int
    mean: float
    num_edges: int


def degree_statistics(graph: nx.Graph) -> DegreeStats:
    degrees = [d for _, d in graph.degree()]
    if not degrees:
        return DegreeStats(0, 0, 0.0, 0)
    return DegreeStats(
        minimum=int(min(degrees)),
        maximum=int(max(degrees)),
        mean=float(sum(degrees)) / len(degrees),
        num_edges=graph.number_of_edges(),
    )


def diameter(graph: nx.Graph) -> int:
    """Hop diameter; 0 for graphs with fewer than two nodes.  Raises if the
    graph is disconnected (which in this code base indicates a bug)."""
    if graph.number_of_nodes() <= 1:
        return 0
    return int(nx.diameter(graph))


@dataclass
class CongestionStats:
    """Per-node load statistics when routing messages between sampled pairs."""

    samples: int
    max_load: int
    mean_load: float
    p99_load: float
    load_imbalance: float  # max / mean


def routing_congestion(graph: nx.Graph, samples: int = 500, seed: int = 0,
                       pairs: Optional[Sequence[Tuple[int, int]]] = None) -> CongestionStats:
    """Route ``samples`` random source/destination pairs along shortest paths
    and measure how the forwarding load distributes over the nodes.

    The supervised skip ring places nodes perfectly evenly on the ring, which
    yields a more balanced load than Chord's or a skip graph's randomised
    placement — the congestion claim of Section 1.3.
    """
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        return CongestionStats(0, 0, 0.0, 0.0, 1.0)
    rng = random.Random(seed)
    load: Dict[int, int] = {node: 0 for node in nodes}
    if pairs is None:
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(samples)]
    count = 0
    for source, target in pairs:
        try:
            path = nx.shortest_path(graph, source, target)
        except nx.NetworkXNoPath:  # pragma: no cover - graphs here are connected
            continue
        count += 1
        for node in path[1:-1]:
            load[node] += 1
        load[source] += 1
        load[target] += 1
    values = sorted(load.values())  # >= 2 nodes here, which quantiles() needs
    mean = statistics.fmean(values)
    return CongestionStats(
        samples=count,
        max_load=values[-1],
        mean_load=mean,
        p99_load=statistics.quantiles(values, n=100, method="inclusive")[-1],
        load_imbalance=values[-1] / mean if mean > 0 else 1.0,
    )


def position_balance(positions: Iterable[float]) -> Dict[str, float]:
    """Balance of node placement on the unit ring.

    Returns the ratio between the largest and the smallest gap between
    consecutive positions plus the coefficient of variation of the gaps.  The
    supervised skip ring achieves a max/min ratio of at most 2 at any time
    (labels bisect the largest gaps in order), whereas hash-based placement
    (Chord, skip graphs) has gaps varying by a ``Θ(log n)`` factor with high
    probability.
    """
    pos = sorted(float(p) % 1.0 for p in positions)
    if len(pos) < 2:
        return {"max_min_ratio": 1.0, "cv": 0.0, "max_gap": 1.0, "min_gap": 1.0}
    gaps = [pos[i + 1] - pos[i] for i in range(len(pos) - 1)]
    gaps.append(1.0 - pos[-1] + pos[0])
    min_gap, max_gap = min(gaps), max(gaps)
    mean = statistics.fmean(gaps)
    return {
        "max_min_ratio": max_gap / min_gap if min_gap > 0 else float("inf"),
        "cv": statistics.pstdev(gaps) / mean if mean > 0 else 0.0,
        "max_gap": max_gap,
        "min_gap": min_gap,
    }
