"""Structural graph metrics: degrees, diameter, congestion and balance.

These metrics back experiments E1 (skip-ring structure), E7 (flooding depth)
and E8 (congestion/balance comparison against Chord and skip graphs).  A graph
is an adjacency map built by :func:`graph`, plus, for the balance metric, a
list of ring positions in ``[0, 1)``.  Everything here is standard library.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Undirected graph: node -> neighbours.  A dict, not a set, so neighbours keep
#: insertion order: shortest_path's tie-breaks, and so E8's loads, rest on it.
Adjacency = Dict[int, Dict[int, None]]


def graph(nodes: Iterable[int], edges: Iterable[Tuple[int, int]]) -> Adjacency:
    """The undirected graph over ``nodes`` and ``edges``, in that insertion order."""
    adj: Adjacency = {node: {} for node in nodes}
    for u, v in edges:
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None
    return adj


def distances(adj: Adjacency, source: int) -> Dict[int, int]:
    """Hop distance from ``source`` to every node it reaches (breadth-first)."""
    dist, queue = {source: 0}, [source]
    for v in queue:  # the queue grows while it is read
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def shortest_path(adj: Adjacency, source: int, target: int) -> List[int]:
    """A shortest ``source`` -> ``target`` path by bidirectional BFS: the
    smaller fringe grows first (the forward one on a tie), and the search
    stops at the first node both sides have reached — networkx's algorithm,
    so the same tie-breaks.  Raises ``ValueError`` if there is no path."""
    pred: Dict[int, Optional[int]] = {source: None}
    succ: Dict[int, Optional[int]] = {target: None}
    forward, reverse = [source], [target]
    meet = source if source == target else None
    while meet is None:
        if not (forward and reverse):
            raise ValueError(f"no path between {source} and {target}")
        if len(forward) <= len(reverse):
            forward, meet = _grow(adj, forward, pred, succ)
        else:
            reverse, meet = _grow(adj, reverse, succ, pred)
    path = [meet]
    while pred[path[0]] is not None:
        path.insert(0, pred[path[0]])
    while succ[path[-1]] is not None:
        path.append(succ[path[-1]])
    return path


def _grow(adj: Adjacency, fringe: List[int], mine: Dict[int, Optional[int]],
          theirs: Dict[int, Optional[int]]) -> Tuple[List[int], Optional[int]]:
    """One BFS level of one side: its next fringe, and where it met the other (or ``None``)."""
    grown: List[int] = []
    for v in fringe:
        for w in adj[v]:
            if w not in mine:
                mine[w] = v
                grown.append(w)
            if w in theirs:
                return grown, w
    return grown, None


@dataclass
class DegreeStats:
    minimum: int
    maximum: int
    mean: float
    num_edges: int


def degree_statistics(adj: Adjacency) -> DegreeStats:
    degrees = [len(neighbours) for neighbours in adj.values()]
    if not degrees:
        return DegreeStats(0, 0, 0.0, 0)
    return DegreeStats(
        minimum=min(degrees),
        maximum=max(degrees),
        mean=sum(degrees) / len(degrees),
        num_edges=sum(degrees) // 2,
    )


def diameter(adj: Adjacency) -> int:
    """Hop diameter (exact: a BFS from every node); 0 for graphs with fewer
    than two nodes.  Raises ``ValueError`` if the graph is disconnected
    (which in this code base indicates a bug)."""
    longest = 0
    for source in adj:
        dist = distances(adj, source)
        if len(dist) < len(adj):
            raise ValueError("the graph is disconnected: its diameter is infinite")
        longest = max(longest, max(dist.values()))
    return longest


@dataclass
class CongestionStats:
    """Per-node load statistics when routing messages between sampled pairs."""

    samples: int
    max_load: int
    mean_load: float
    p99_load: float
    load_imbalance: float  # max / mean


def routing_congestion(adj: Adjacency, samples: int = 500, seed: int = 0,
                       pairs: Optional[Sequence[Tuple[int, int]]] = None) -> CongestionStats:
    """Route ``samples`` random source/destination pairs along shortest paths
    and measure how the forwarding load distributes over the nodes.  Raises
    ``ValueError`` if a pair has no path (a disconnected overlay is a bug).

    The supervised skip ring places nodes perfectly evenly on the ring, which
    yields a more balanced load than Chord's or a skip graph's randomised
    placement — the congestion claim of Section 1.3.
    """
    nodes = list(adj)
    if len(nodes) < 2:
        return CongestionStats(0, 0, 0.0, 0.0, 1.0)
    rng = random.Random(seed)
    load: Dict[int, int] = {node: 0 for node in nodes}
    if pairs is None:
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(samples)]
    for source, target in pairs:
        path = shortest_path(adj, source, target)
        for node in path[1:-1]:
            load[node] += 1
        load[source] += 1
        load[target] += 1
    values = sorted(load.values())  # >= 2 nodes here, which quantiles() needs
    mean = statistics.fmean(values)
    return CongestionStats(
        samples=len(pairs),
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
