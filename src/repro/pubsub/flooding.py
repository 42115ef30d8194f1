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

from repro.analysis.graph_metrics import distances, graph
from repro.core.skip_ring import SkipRingTopology


def ideal_flood_depth(n: int, source: int = 0) -> int:
    """Hops until the *last* subscriber of the ideal ``SR(n)`` receives a
    publication flooded from ``source``: each node forwards on first receipt,
    so a node receives it after as many hops as its distance from ``source``."""
    return max(distances(graph(range(n), SkipRingTopology(n).edges()), source).values())


def plain_ring_flood_depth(n: int, source: int = 0) -> int:
    """Delivery depth on a plain ring without shortcuts: ``⌈(n-1)/2⌉`` when
    flooding in both directions (the baseline the paper's related work,
    which delivers in ``O(n)`` steps, corresponds to)."""
    return n // 2

