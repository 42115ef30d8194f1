"""Ideal skip-ring topology ``SR(n)`` (paper Definition 2).

This module constructs the *target* topology that the self-stabilizing
protocol converges to, independent of any simulation.  It is used

* by the analysis layer to verify that a stabilized simulation matches the
  ideal topology,
* by experiment E1 to reproduce Lemma 3 (degree bounds, edge count 4n − 4,
  constant average degree) and the logarithmic-diameter claim, measured by
  :mod:`repro.analysis.graph_metrics` on ``graph(range(n), topo.edges())``, and
* by the baselines comparison (E8) as the supervised topology under test.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.labels import Label, labels_up_to, max_level, ring_key
from repro.core.shortcuts import shortcut_labels

Edge = Tuple[int, int]


class SkipRingTopology:
    """The ideal supervised skip ring over ``n`` subscribers.

    Nodes are identified by their join index ``0..n-1``; node ``i`` carries
    label ``l(i)``.  Edges are undirected pairs of node indices (the protocol
    maintains them bidirectionally).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("a skip ring needs at least one node")
        self.n = n
        self.labels: List[Label] = labels_up_to(n)
        self.index_by_label: Dict[Label, int] = {
            lbl: i for i, lbl in enumerate(self.labels)
        }
        self.top_level = max_level(n)
        self._order: Optional[List[int]] = None
        self._position: Dict[int, int] = {}
        self._ring_edges: Optional[Set[Edge]] = None
        self._shortcut_edges: Optional[Dict[int, Set[Edge]]] = None

    # ------------------------------------------------------------------ rings
    def _full_order(self) -> List[int]:
        """The full ring order (and the ``node → position`` map), sorted once:
        the topology is immutable, so every per-node query shares it."""
        if self._order is None:
            self._order = sorted(range(self.n), key=lambda i: ring_key(self.labels[i]))
            self._position = {node: pos for pos, node in enumerate(self._order)}
        return self._order

    def ring_order(self, level: Optional[int] = None) -> List[int]:
        """Node indices sorted by ring position within ``K_level`` (label length
        ≤ level; ``None``: all nodes) — a filtered copy of the one cached order."""
        return [i for i in self._full_order()
                if level is None or len(self.labels[i]) <= level]

    @staticmethod
    def _cycle_edges(order: List[int]) -> Set[Edge]:
        """Undirected edges of the cyclic sorted ring over ``order``."""
        m = len(order)
        if m <= 1:
            return set()
        return {_norm(order[i], order[(i + 1) % m]) for i in range(m)}

    def ring_edges(self) -> Set[Edge]:
        """``E_R``: edges between consecutive nodes in the full ring."""
        if self._ring_edges is None:
            self._ring_edges = self._cycle_edges(self._full_order())
        return set(self._ring_edges)

    def shortcut_edges_by_level(self) -> Dict[int, Set[Edge]]:
        """``E_S`` grouped by level ``i ∈ {1, ..., ⌈log n⌉ − 1}``.

        An edge belongs to level ``i`` if it is part of the sorted ring over
        ``K_i`` and ``i = max(|label_u|, |label_v|)`` (Definition 2).  Edges of
        ``E_R`` are excluded (they live on level ``⌈log n⌉``).
        """
        if self._shortcut_edges is None:
            ring = self.ring_edges()
            by_level: Dict[int, Set[Edge]] = defaultdict(set)
            for level in range(1, self.top_level):
                for edge in self._cycle_edges(self.ring_order(level)):
                    if edge in ring:
                        continue
                    u, v = edge
                    lvl = max(len(self.labels[u]), len(self.labels[v]))
                    by_level[lvl].add(edge)
            self._shortcut_edges = dict(by_level)
        return {lvl: set(edges) for lvl, edges in self._shortcut_edges.items()}

    def shortcut_edges(self) -> Set[Edge]:
        out: Set[Edge] = set()
        for edges in self.shortcut_edges_by_level().values():
            out |= edges
        return out

    def edges(self) -> Set[Edge]:
        """``E_R ∪ E_S`` as undirected edges."""
        return self.ring_edges() | self.shortcut_edges()

    # -------------------------------------------------- legitimate-state spec
    def expected_subscriber_state(self, node: int) -> Dict[str, object]:
        """The per-subscriber variable assignment in a legitimate state.

        Returns a dict with keys ``label``, ``left``, ``right``, ``ring`` and
        ``shortcuts``:

        * ``left``/``right`` are the node indices of the list neighbours
          (``None`` at the minimum/maximum position respectively),
        * ``ring`` is the wrap-around partner for the minimum and maximum
          nodes and ``None`` for everyone else,
        * ``shortcuts`` maps shortcut labels (as computed locally by the
          protocol from the ring-neighbour labels) to node indices.
        """
        order, pos, last = self._full_order(), self._position[node], self.n - 1
        before, after = order[pos - 1], order[(pos + 1) % self.n]  # cyclic neighbours
        pred = before if pos > 0 else None
        succ = after if pos < last else None
        ring: Optional[int] = None
        if last > 0 and (pred is None or succ is None):
            ring = before if pred is None else after
        own_label = self.labels[node]
        # Shortcuts derive from the cyclic neighbours, whichever variable holds them.
        around = (self.labels[before], self.labels[after]) if last > 0 else (None, None)
        targets = shortcut_labels(own_label, *around)
        shortcuts = {
            lbl: self.index_by_label[lbl]
            for lbl in targets
            if lbl in self.index_by_label
        }
        return {
            "label": own_label,
            "left": pred,
            "right": succ,
            "ring": ring,
            "shortcuts": shortcuts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkipRingTopology(n={self.n}, top_level={self.top_level})"


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)

