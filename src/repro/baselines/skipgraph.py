"""Skip-graph baseline (Aspnes & Shah), used by experiment E8.

Every node draws a random membership vector; level ``i`` partitions the nodes
by the first ``i`` bits of their vectors, and within each partition the nodes
form a doubly linked list sorted by key.  Degrees are ``Θ(log n)`` for *every*
node (unlike the skip ring, whose average degree is constant), and placement
of keys is whatever the application supplies — here uniform random, matching
the usual DHT usage the paper compares against.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Set, Tuple


class SkipGraphTopology:
    """A static skip graph over ``n`` nodes with random membership vectors."""

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        rng = random.Random(seed)
        self.max_levels = max(1, (n - 1).bit_length() + 2)
        #: sorted keys in [0, 1) — random placement, as in a DHT
        self.keys: List[float] = sorted(rng.random() for _ in range(n))
        #: membership vector per node index
        self.vectors: List[str] = [
            "".join(rng.choice("01") for _ in range(self.max_levels)) for _ in range(n)
        ]

    def edges(self) -> Set[Tuple[int, int]]:
        """Undirected edges: list neighbours at every level."""
        edges: Set[Tuple[int, int]] = set()
        for level in range(self.max_levels + 1):
            groups: Dict[str, List[int]] = defaultdict(list)
            for index in range(self.n):
                prefix = self.vectors[index][:level]
                groups[prefix].append(index)
            for members in groups.values():
                members.sort(key=lambda i: self.keys[i])
                for a, b in zip(members, members[1:]):
                    edges.add((a, b) if a <= b else (b, a))
            if all(len(m) <= 1 for m in groups.values()):
                break
        return edges

    def positions(self) -> List[float]:
        return list(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkipGraphTopology(n={self.n}, levels={self.max_levels})"
