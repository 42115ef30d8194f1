"""Columnar node-state arena: flat buffers behind the object facade.

BENCH_5 showed the block-drain engine (PR 6) cache-bound past ~20k nodes:
per-event cost tripled between 2k and 50k nodes because the hot loop chased
pointers through per-node Python objects and one channel dict per
destination.  The arena is the memory-layout answer: node identifiers are
interned to dense integer indices at registration time, and the hot per-node
simulator state lives in two flat parallel buffers —

* ``nodes``        — dense ``node_id -> ProtocolNode`` list (one pointer
                     array instead of a hash table; the engine's delivery and
                     timeout branches index it directly),
* ``timeout_count``— ``array('q')`` int64 column, the authoritative store
                     behind :attr:`ProtocolNode.timeout_count` (the object
                     attribute is a thin property view over this buffer).

That is the whole arena: the engine reads these two buffers and calls
:meth:`NodeArena.add`, nothing else.  (Liveness has one home per question —
``ProtocolNode.crashed`` for "may it act", ``Network._crashed`` for "is its
address gone" — and no third copy here.)  The columns earn their lines at
scale, not at the 2k nodes ``bench/`` runs: see README's engine section for
the measured 20k/100k numbers.

The arena only accelerates **dense** ids: non-negative ints within a growth
cap (every id the facades allocate — supervisors from 0, subscribers from 1).
Ids outside that window (negative, huge, non-int — e.g. corrupted refs a
fuzz scenario forges) take the classic dict path: :meth:`add` leaves their
``_arena_index`` at ``-1``, the engine's dense lookups miss and fall back to
``Simulator.nodes``, and their timeout counter lives in the node's private
slot.  Correctness never depends on density; only the constant factor does.

Buffers are grown strictly **in place** (``list.extend`` /
``array.frombytes``): the engine's fused loops capture ``nodes`` and
``timeout_count`` once per drain, so rebinding either would silently split
the state.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.node import ProtocolNode

#: Ids below this always get a dense slot (covers every normal facade run
#: without any ratio test).
_DENSE_FLOOR = 1024
#: Above the floor, an id only gets a dense slot while the buffers stay
#: within this factor of the registered-node count (guards against a single
#: forged id of 10**9 ballooning the arrays).
_DENSE_GROWTH = 4


class NodeArena:
    """Dense node list + flat timeout-counter column.

    One arena per :class:`~repro.sim.engine.Simulator`, which registers every
    node through :meth:`add`.  Both columns are indexed by **node id**
    (identity interning — the dense case needs no id→slot hash on the hot
    path); sparse ids are excluded from the columns and live only in
    ``Simulator.nodes``.
    """

    __slots__ = ("nodes", "timeout_count", "_registered")

    def __init__(self) -> None:
        #: dense node_id -> node (None-padded); the engine hot loops index it
        self.nodes: List[Optional["ProtocolNode"]] = []
        #: int64 Timeout-firing counters, index-aligned with :attr:`nodes`
        self.timeout_count = array("q")
        #: nodes registered so far (dense + sparse): scales the growth cap
        self._registered = 0

    def _dense_eligible(self, node_id: object) -> bool:
        if type(node_id) is not int or node_id < 0:
            return False
        if node_id < _DENSE_FLOOR:
            return True
        return node_id < _DENSE_GROWTH * (self._registered + 1) + _DENSE_FLOOR

    def add(self, node: "ProtocolNode") -> None:
        """Register ``node``, interning its id and assigning its column row.

        Dense ids become their own index (identity interning: the engine
        needs no id→slot lookup); the buffers are padded in place up to the
        id.  Sparse ids keep ``_arena_index = -1`` — every consumer falls
        back to the object attributes for them.
        """
        node_id = node.node_id
        self._registered += 1
        node._arena = self
        if not self._dense_eligible(node_id):
            node._arena_index = -1
            return
        nodes = self.nodes
        if node_id >= len(nodes):
            # In-place growth only: the engine captures these buffers once
            # per drain (see the module docstring).  Geometric (doubling)
            # growth amortises the 50k-node registration loop to O(log n)
            # extend calls; the over-allocation is None/zero padding that
            # every consumer already skips.
            grow = max(node_id + 1, 2 * len(nodes)) - len(nodes)
            nodes.extend([None] * grow)
            # frombytes, not extend: extend(bytes) appends one item per BYTE
            self.timeout_count.frombytes(bytes(8 * grow))
        nodes[node_id] = node
        self.timeout_count[node_id] = node._timeout_count
        node._arena_index = node_id
