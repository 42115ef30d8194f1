"""Topic bookkeeping for the multi-topic publish-subscribe system (Section 4).

The paper runs one BuildSR protocol instance per topic: the supervisor keeps a
database per topic and every message carries the topic it refers to.  The
:class:`TopicRegistry` is the orchestration-side view of which peers *intend*
to be subscribed to which topic; it is used by the facade
(:class:`repro.core.system.SupervisedPubSub`) and by legitimacy checks to know
what the converged system should look like.  It is deliberately not part of
the distributed protocol state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set


class TopicRegistry:
    """Tracks intended topic membership (the experiment's ground truth)."""

    def __init__(self, topics: Iterable[str] = ()) -> None:
        self._members: Dict[str, Set[int]] = {t: set() for t in topics}

    # ----------------------------------------------------------------- topics
    def add_topic(self, topic: str) -> None:
        self._members.setdefault(topic, set())

    def topics(self) -> List[str]:
        return sorted(self._members)

    # ------------------------------------------------------------ membership
    def subscribe(self, node_id: int, topic: str) -> None:
        self.add_topic(topic)
        self._members[topic].add(node_id)

    def unsubscribe(self, node_id: int, topic: str) -> None:
        if topic in self._members:
            self._members[topic].discard(node_id)

    def remove_node(self, node_id: int) -> None:
        """Remove a crashed/departed peer from every topic."""
        for members in self._members.values():
            members.discard(node_id)

    def members(self, topic: str) -> Set[int]:
        return set(self._members.get(topic, set()))

    def __contains__(self, topic: object) -> bool:
        return topic in self._members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {t: len(m) for t, m in self._members.items()}
        return f"TopicRegistry({sizes})"
