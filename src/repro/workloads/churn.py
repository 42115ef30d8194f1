"""Join / leave / crash schedules (churn workloads).

Used by experiment E3 (subscribe/unsubscribe overhead), E9 (failure recovery)
and the integration tests that exercise the system under continuous change.

Churn works at any shard count: schedules are applied to any
:class:`~repro.core.facade.SupervisedPubSub` (one supervisor or K shards),
and events target members by their **stable node id** — never by position in
a subscriber list, which would silently shift as earlier events fire and
could even address a supervisor on the sharded facade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.facade import SupervisedPubSub
from repro.sim.node import NodeRef


@dataclass(frozen=True)
class ChurnEvent:
    """A single scheduled membership change."""

    time: float
    kind: str  # "join", "leave" or "crash"
    #: stable node id of the leave/crash victim; ``None`` picks a random live
    #: member when the event fires.  Ignored for joins.
    target: Optional[NodeRef] = None

    def __post_init__(self) -> None:
        if self.kind not in {"join", "leave", "crash"}:
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be non-negative")


@dataclass
class ChurnSchedule:
    events: List[ChurnEvent] = field(default_factory=list)

    def add(self, event: ChurnEvent) -> None:
        self.events.append(event)

    def sorted_events(self) -> List[ChurnEvent]:
        return sorted(self.events, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self.events)


def apply_churn(system: SupervisedPubSub, schedule: ChurnSchedule,
                topic: Optional[str] = None, seed: int = 0) -> None:
    """Register the schedule's events as simulator callbacks.

    ``leave`` and ``crash`` events address their victim by stable node id
    (:attr:`ChurnEvent.target`).  A ``None`` target picks a random live
    member at the time the event fires, which keeps the schedule meaningful
    even when prior events changed the membership; a targeted event whose
    victim has already left or crashed becomes a no-op.
    """
    topic = topic or system.params.default_topic
    rng = random.Random(seed * 31 + 17)

    def make_callback(event: ChurnEvent):
        def callback() -> None:
            if event.kind == "join":
                system.add_subscriber(topic)
                return
            members = system.members(topic)
            if not members:
                return
            if event.target is not None:
                if event.target not in members:
                    return
                victim = event.target
            else:
                victim = rng.choice(members)
            if event.kind == "leave":
                system.unsubscribe(victim, topic)
            else:
                system.crash(victim)
        return callback

    for event in schedule.sorted_events():
        system.sim.call_at(system.sim.now + event.time, make_callback(event))
