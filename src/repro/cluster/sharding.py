"""Consistent hashing of topics onto supervisor shards.

The paper's single well-known supervisor handles every ``Subscribe`` /
``Unsubscribe`` / ``GetConfiguration`` request of every topic, which makes it
the scalability bottleneck of the whole system.  The cluster layer removes
that bottleneck by running one BuildSR supervisor *per shard* and assigning
each topic to exactly one shard.

:class:`ConsistentHashRing` provides the assignment.  Every shard owns
:data:`VIRTUAL_NODES` points on a 64-bit hash ring (positions come from
:func:`repro.pubsub.hashing.ring_position`); a topic is served by the shards
encountered clockwise from the topic's own ring position.  Consistent hashing
gives the two properties the cluster needs:

* **stability** — adding or removing one shard only moves the topics that
  hashed to that shard; everything else keeps its supervisor, and
* **spread** — with enough virtual nodes, topics distribute evenly.

Because a deployment typically has far fewer topics than a hash ring needs to
balance statistically, :meth:`ConsistentHashRing.assign_balanced` implements
the *bounded-loads* variant: walk the preference order and take the first
shard whose current topic count is below the balanced capacity
``ceil(assigned / shards)``.  This keeps the per-shard topic count within one
of perfect balance while still inheriting consistent hashing's stability.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List

from repro.pubsub.hashing import ring_position

#: Virtual nodes (ring points) per shard.
VIRTUAL_NODES = 64


class ConsistentHashRing:
    """A 64-bit consistent-hash ring mapping string keys to shard ids."""

    def __init__(self) -> None:
        self._points: List[int] = []          # sorted ring positions
        self._owner_at: Dict[int, int] = {}   # ring position -> shard id
        self._shards: Dict[int, List[int]] = {}  # shard id -> its positions
        self._unplaced: List[int] = []  # added shards not yet on the ring, in add order

    # ------------------------------------------------------------------ shards
    def add_shard(self, shard_id: int) -> None:
        """Record ``shard_id``; its virtual nodes are placed by the next lookup,
        so building a system hashes nothing."""
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._shards[shard_id] = []
        self._unplaced.append(shard_id)

    def remove_shard(self, shard_id: int) -> None:
        positions = self._shards.pop(shard_id, None)
        if positions is None:
            raise ValueError(f"shard {shard_id} not on the ring")
        if shard_id in self._unplaced:
            self._unplaced.remove(shard_id)
        for point in positions:
            del self._owner_at[point]
        self._points = sorted(self._owner_at)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: object) -> bool:
        return shard_id in self._shards

    # ------------------------------------------------------------------ lookup
    def _start(self, key: str) -> int:
        """Index in ``_points`` of the first virtual node clockwise of ``key``'s
        hash.  Places every unplaced shard first, in the order they were added."""
        for shard_id in self._unplaced:
            positions = self._shards[shard_id]
            for replica in range(VIRTUAL_NODES):
                point = ring_position(f"shard:{shard_id}:{replica}")
                # Astronomically unlikely collision: nudge deterministically.
                while point in self._owner_at:
                    point = (point + 1) % (1 << 64)
                self._owner_at[point] = shard_id
                positions.append(point)
        if self._unplaced:
            self._unplaced.clear()
            self._points = sorted(self._owner_at)
        if not self._points:
            raise ValueError("consistent-hash ring has no shards")
        return bisect_right(self._points, ring_position(key, salt=b"topic"))

    def owner(self, key: str) -> int:
        """The shard owning ``key``: first virtual node clockwise of its hash."""
        index = self._start(key) % len(self._points)
        return self._owner_at[self._points[index]]

    def preference_order(self, key: str) -> List[int]:
        """All distinct shards in clockwise ring order starting at ``key``.

        The first entry is :meth:`owner`; later entries are the successive
        fallbacks used by the bounded-loads assignment and by rebalancing.
        """
        start = self._start(key)
        order: List[int] = []
        seen = set()
        count = len(self._points)
        for offset in range(count):
            shard = self._owner_at[self._points[(start + offset) % count]]
            if shard not in seen:
                seen.add(shard)
                order.append(shard)
                if len(order) == len(self._shards):
                    break
        return order

    def assign_balanced(self, key: str, load: Dict[int, int]) -> int:
        """Bounded-loads assignment: the first shard in ``key``'s preference
        order whose entry in ``load`` is below the perfectly balanced capacity
        ``ceil((total assigned + 1) / shards)``.

        ``load`` maps shard id -> number of keys already assigned; the caller
        keeps it up to date.
        """
        order = self.preference_order(key)
        total = sum(load.get(shard, 0) for shard in self._shards) + 1
        capacity = -(-total // len(self._shards))  # ceil division
        for shard in order:
            if load.get(shard, 0) < capacity:
                return shard
        return order[0]

