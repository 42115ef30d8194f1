"""Centralized broker publish-subscribe baseline (the client-server approach
the paper's introduction contrasts with).

In the broker model a single server stores the subscriber list per topic and
relays every publication to every subscriber, so its message load grows with
``(number of publications) × (number of subscribers per topic)``.  The
supervised approach keeps the supervisor out of the dissemination path: its
load is a constant per subscribe/unsubscribe plus a constant expected
maintenance rate (Theorems 5 and 7), independent of the publication rate.

Two granularities are provided: an analytic :class:`BrokerLoadModel` used by
experiment E10's table, and a small operational :class:`BrokerPubSub` used by
tests and examples to double-check the analytic counts.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Set

#: Expected configuration requests per maintenance round in the supervisor's
#: load (Theorem 5 bounds the rate by a constant).
EXPECTED_REQUESTS_PER_ROUND = 1.0


@dataclass
class BrokerLoadModel:
    """Closed-form message counts for the broker architecture."""

    subscribers: int
    publications: int
    subscribe_ops: int = 0
    unsubscribe_ops: int = 0

    def broker_messages(self) -> int:
        """Messages handled by the broker: one inbound per publish plus one
        outbound per (publication, subscriber), plus one per membership op."""
        dissemination = self.publications * (1 + self.subscribers)
        membership = self.subscribe_ops + self.unsubscribe_ops
        return dissemination + membership

    def supervisor_messages(self, maintenance_rounds: int = 0) -> int:
        """Messages handled by the supervised skip ring's supervisor for the
        same workload: a constant (2: request + configuration) per membership
        operation plus the expected maintenance traffic — and, crucially,
        nothing per publication."""
        membership = 2 * (self.subscribe_ops + self.unsubscribe_ops)
        maintenance = int(round(maintenance_rounds * (1 + EXPECTED_REQUESTS_PER_ROUND)))
        return membership + maintenance


class BrokerPubSub:
    """A minimal operational broker, counting messages explicitly."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, Set[int]] = defaultdict(set)
        self.broker_messages_handled = 0

    # ------------------------------------------------------------ membership
    def subscribe(self, node_id: int, topic: str) -> None:
        self.broker_messages_handled += 1
        self._subscribers[topic].add(node_id)

    def unsubscribe(self, node_id: int, topic: str) -> None:
        self.broker_messages_handled += 1
        self._subscribers[topic].discard(node_id)

    def subscribers(self, topic: str) -> Set[int]:
        return set(self._subscribers[topic])

    # ----------------------------------------------------------- publication
    def publish(self, publisher: int, payload: bytes, topic: str) -> int:
        """Relay a publication; returns the number of deliveries made."""
        receivers = self._subscribers[topic]
        # one inbound publish plus one outbound delivery per subscriber
        self.broker_messages_handled += 1 + len(receivers)
        return len(receivers)
