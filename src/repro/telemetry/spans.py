"""Phase spans: sim-time intervals recorded off the typed hook registry.

A *span* is ``(kind, name, start, end)`` in simulation seconds — a
relegitimacy interval, a scenario phase, or a zero-width event mark such as
a supervisor crash.  The timeline keeps spans in emission order (which is
deterministic for a seeded run) and derives a per-kind digest at report
time.  All floats are rounded to 6 decimals on entry so serialized
timelines are byte-stable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Span = Tuple[str, str, float, float]


class SpanTimeline:
    """Ordered collection of ``(kind, name, start, end)`` spans."""

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, kind: str, name: str, start: float, end: float) -> None:
        if end < start:
            raise ValueError(f"span ends before it starts: {start} > {end}")
        self.spans.append((kind, name, round(start, 6), round(end, 6)))

    def mark(self, kind: str, name: str, at: float) -> None:
        """Zero-width span for point events (e.g. a supervisor crash)."""
        self.add(kind, name, at, at)

    def __len__(self) -> int:
        return len(self.spans)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-kind digest: span count, total and max duration (sim s)."""
        out: Dict[str, Dict[str, object]] = {}
        for kind, _name, start, end in self.spans:
            entry = out.setdefault(kind, {"count": 0, "total": 0.0, "max": 0.0})
            duration = end - start
            entry["count"] += 1
            entry["total"] += duration
            if duration > entry["max"]:
                entry["max"] = duration
        for kind in sorted(out):
            entry = out[kind]
            entry["total"] = round(entry["total"], 6)
            entry["max"] = round(entry["max"], 6)
        return {kind: out[kind] for kind in sorted(out)}

    def to_list(self) -> List[List[object]]:
        return [[kind, name, start, end]
                for kind, name, start, end in self.spans]
