"""Chord-style overlay baseline (Stoica et al.), used by experiment E8.

Nodes are placed on the identifier circle by hashing, and every node keeps a
successor pointer plus ``m`` fingers (the successor of ``id + 2^i``).  The
paper's point of comparison is that the supervisor's deterministic label
assignment spreads nodes perfectly evenly on the ring, whereas Chord's hashed
placement leaves gaps that differ by a logarithmic factor, which translates
into less balanced routing load ("our network has a better congestion than
these networks", Section 1.3).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import List, Set, Tuple


class ChordTopology:
    """A static Chord ring over ``n`` nodes with ``bits``-bit identifiers."""

    def __init__(self, n: int, bits: int = 32, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.bits = bits
        self.space = 2 ** bits
        # Hash-based identifiers (salted per seed), deduplicated.
        ids: Set[int] = set()
        counter = 0
        while len(ids) < n:
            raw = f"chord-{seed}-{counter}".encode()
            ids.add(int.from_bytes(hashlib.sha256(raw).digest(), "big") % self.space)
            counter += 1
        self.node_ids: List[int] = sorted(ids)

    # ------------------------------------------------------------------ rings
    def successor(self, point: int) -> int:
        """The first node identifier clockwise from ``point`` (inclusive)."""
        index = bisect_left(self.node_ids, point % self.space)
        return self.node_ids[index % len(self.node_ids)]

    def fingers(self, node_id: int) -> List[int]:
        """Finger table of ``node_id``: successor(node_id + 2^i) for all i."""
        out = []
        for i in range(self.bits):
            finger = self.successor(node_id + (1 << i))
            if finger != node_id:
                out.append(finger)
        return sorted(set(out))

    def edges(self) -> Set[Tuple[int, int]]:
        """Undirected edge set: ring successors plus all fingers."""
        edges: Set[Tuple[int, int]] = set()
        for index, node_id in enumerate(self.node_ids):
            succ = self.node_ids[(index + 1) % self.n]
            if succ != node_id:
                edges.add(_norm(node_id, succ))
            for finger in self.fingers(node_id):
                edges.add(_norm(node_id, finger))
        return edges

    # --------------------------------------------------------------- metrics
    def positions(self) -> List[float]:
        """Ring positions in [0, 1) (for the placement-balance metric)."""
        return [node_id / self.space for node_id in self.node_ids]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChordTopology(n={self.n}, bits={self.bits})"


def _norm(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)
