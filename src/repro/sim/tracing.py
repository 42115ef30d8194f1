"""Structured tracing and metric collection for simulation runs.

The experiments need more than raw message counts: they track *when* the
system first reached a legitimate state, how many configuration requests the
supervisor received per timeout interval, how many hops a flooded publication
needed, and so on.  :class:`Tracer` is a lightweight event log plus a set of
named counters that protocol code and experiment harnesses can write to
without coupling to each other.

A counter is always kept; an event object only when :attr:`Tracer.keep_events`
is on.  The per-message protocol paths (a flood delivery, an anti-entropy
receipt, a publish) read that flag first: with the log off they bump
:attr:`Tracer.counters` directly and build no keyword arguments for
:meth:`Tracer.record`, which would only count them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(slots=True)
class TraceEvent:
    """A single timestamped trace record."""

    time: float
    kind: str
    node: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects trace events and counters during a run."""

    __slots__ = ("keep_events", "max_events", "events", "counters",
                 "events_dropped")

    def __init__(self, keep_events: bool = True, max_events: int = 1_000_000) -> None:
        self.keep_events = keep_events
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.counters: Counter = Counter()
        #: events that would have been stored but fell past ``max_events``
        #: (counters still counted them; only the event *objects* are gone)
        self.events_dropped = 0

    @property
    def truncated(self) -> bool:
        """True when at least one event was dropped at the ``max_events``
        cap — consumers of :attr:`events` are seeing a prefix, not the run."""
        return self.events_dropped > 0

    # ------------------------------------------------------------------ events
    def record(self, time: float, kind: str, node: Optional[int] = None, **data: Any) -> None:
        """Log an event and bump the counter named after its kind."""
        self.counters[kind] += 1
        if self.keep_events:
            if len(self.events) < self.max_events:
                self.events.append(
                    TraceEvent(time=time, kind=kind, node=node, data=data))
            else:
                self.events_dropped += 1

    def count(self, kind: str, amount: int = 1) -> None:
        """Increment the counter ``kind`` without logging an event."""
        self.counters[kind] += amount
