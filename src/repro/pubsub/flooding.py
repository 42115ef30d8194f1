"""Flooding of new publications over ring and shortcut edges (Section 4.3).

Flooding is an *optimisation*: correctness (eventual delivery) rests entirely
on the self-stabilizing anti-entropy protocol, but flooding delivers a fresh
publication to every subscriber within the skip ring's diameter, i.e. in
``O(log n)`` hops, instead of the ``Θ(n)`` hops a plain ring would need.

The fan-out itself is ``TopicView._flood`` in :mod:`repro.core.subscriber`;
this module holds the analytical helpers used by experiment E7 (expected hop
counts on the ideal topology).
"""

from __future__ import annotations

from typing import Dict

import networkx as nx

from repro.core.skip_ring import SkipRingTopology


def ideal_flood_hops(n: int, source: int = 0) -> Dict[int, int]:
    """Hop distance of every node from ``source`` in the ideal ``SR(n)``.

    Flooding delivers a publication along shortest paths (each node forwards
    on first receipt), so the delivery hop count of node ``v`` equals its
    graph distance from the publisher.
    """
    topo = SkipRingTopology(n)
    graph = topo.to_networkx()
    return dict(nx.single_source_shortest_path_length(graph, source))


def ideal_flood_depth(n: int, source: int = 0) -> int:
    """Number of hops until the *last* subscriber receives the publication."""
    hops = ideal_flood_hops(n, source)
    return max(hops.values()) if hops else 0


def plain_ring_flood_depth(n: int, source: int = 0) -> int:
    """Delivery depth on a plain ring without shortcuts: ``⌈(n-1)/2⌉`` when
    flooding in both directions (the baseline the paper's related work,
    which delivers in ``O(n)`` steps, corresponds to)."""
    if n <= 1:
        return 0
    return (n - 1 + 1) // 2

