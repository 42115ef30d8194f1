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

    __slots__ = ("keep_events", "events", "counters")

    def __init__(self, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.counters: Counter = Counter()

    def record(self, time: float, kind: str, node: Optional[int] = None, **data: Any) -> None:
        """Log an event and bump the counter named after its kind."""
        self.counters[kind] += 1
        if self.keep_events:
            self.events.append(TraceEvent(time=time, kind=kind, node=node, data=data))
