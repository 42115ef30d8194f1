"""Per-run telemetry recorder wired into the typed hook registry.

:func:`repro.api.builder.build_system` attaches a :class:`TelemetryRecorder`
to every system built from a ``SystemSpec`` with ``telemetry=True`` (the
facade exposes it as ``system.telemetry``).  The recorder listens on the
existing :class:`~repro.core.hooks.HookRegistry` events — it adds no new
emit sites to the protocol code:

* ``on_subscribe`` + ``on_relegitimacy`` → the **subscribe→stabilization**
  histogram (in timeout rounds): each subscribe is pended at its sim time
  and resolved by the next successful legitimacy drive covering its topic.
* ``on_relegitimacy`` / ``on_phase`` / ``on_supervisor_crash`` → the
  **span timeline** (sim-time intervals per protocol phase; crashes are
  zero-width marks).

Publication→delivery latency is *not* recorded here: it lives in
``ChannelStats.delivery_latency`` (enabled by ``build_system`` alongside
the recorder) because it must be observed per message inside the network pop path.  The
recorder only serializes it alongside its own state in :meth:`to_dict`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.telemetry.histogram import (LatencyHistogram, ROUNDS_SPEC,
                                       merge_histogram_dicts)
from repro.telemetry.spans import SpanTimeline

#: Keys in a run-telemetry dict holding serialized histograms.
_HISTOGRAM_KEYS = ("delivery_latency", "stabilization_rounds")


class TelemetryRecorder:
    """Collects spans and stabilization latencies for one system."""

    __slots__ = ("_system", "stabilization", "spans", "_pending")

    def __init__(self, system: Any) -> None:
        self._system = system
        self.stabilization = LatencyHistogram(ROUNDS_SPEC, unit="rounds")
        self.spans = SpanTimeline()
        #: (node_id, topic) -> sim time of the subscribe awaiting stabilization
        self._pending: Dict[tuple, float] = {}
        (system.hooks
         .on_subscribe(self._on_subscribe)
         .on_relegitimacy(self._on_relegitimacy)
         .on_supervisor_crash(self._on_supervisor_crash)
         .on_phase(self._on_phase))

    # ------------------------------------------------------------- hook sinks
    def _on_subscribe(self, node_id: int, topic: str) -> None:
        # Latest subscribe wins for a (node, topic) pair; re-subscribes of
        # the same pair before stabilization restart its clock.
        self._pending[(node_id, topic)] = self._system.sim.now

    def _on_relegitimacy(self, topics: Iterable[str], rounds: float) -> None:
        now = self._system.sim.now
        period = self._system.sim.config.timeout_period
        start = now - rounds * period
        name = "+".join(sorted(topics)) if topics else "all"
        self.spans.add("relegitimacy", name, min(start, now), now)
        if self._pending:
            covered = set(topics)
            for key in [k for k in self._pending if k[1] in covered]:
                elapsed = now - self._pending.pop(key)
                self.stabilization.record(elapsed / period)

    def _on_supervisor_crash(self, shard_id: int, moved_topics: Any) -> None:
        self.spans.mark("supervisor_crash", f"shard{shard_id}",
                        self._system.sim.now)

    def _on_phase(self, name: str, phase_report: Any) -> None:
        now = self._system.sim.now
        period = self._system.sim.config.timeout_period
        elapsed_rounds = getattr(phase_report, "elapsed_rounds", 0.0) or 0.0
        start = now - elapsed_rounds * period
        self.spans.add("phase", name, min(start, now), now)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """The run-telemetry payload embedded in ``RunReport.telemetry``."""
        payload: Dict[str, Any] = {}
        delivery = self._system.sim.network.stats.delivery_latency
        if delivery is not None:
            payload["delivery_latency"] = delivery.to_report_dict()
        payload["stabilization_rounds"] = self.stabilization.to_report_dict()
        payload["spans"] = self.spans.to_list()
        payload["span_summary"] = self.spans.summary()
        return payload


def merge_telemetry_dicts(
        dicts: Iterable[Optional[Dict[str, Any]]]) -> Optional[Dict[str, Any]]:
    """Merge per-run telemetry payloads into one campaign-level payload.

    Histograms merge exactly (integer counts — order-invariant); span
    *summaries* aggregate (count/total/max per kind) while the raw span
    lists stay in the per-task reports where they belong.  Returns ``None``
    when no input carries telemetry, so campaigns without the knob gain no
    key and stay byte-identical.
    """
    present: List[Dict[str, Any]] = [d for d in dicts if d]
    if not present:
        return None
    merged: Dict[str, Any] = {"runs": len(present)}
    for key in _HISTOGRAM_KEYS:
        serialized = [d[key] for d in present if d.get(key)]
        if serialized:
            combined = merge_histogram_dicts(serialized)
            merged[key] = LatencyHistogram.from_dict(combined).to_report_dict()
    span_summary: Dict[str, Dict[str, Any]] = {}
    for payload in present:
        for kind, entry in sorted((payload.get("span_summary") or {}).items()):
            slot = span_summary.setdefault(
                kind, {"count": 0, "total": 0.0, "max": 0.0})
            slot["count"] += entry["count"]
            slot["total"] += entry["total"]
            if entry["max"] > slot["max"]:
                slot["max"] = entry["max"]
    for kind in sorted(span_summary):
        span_summary[kind]["total"] = round(span_summary[kind]["total"], 6)
    if span_summary:
        merged["span_summary"] = {kind: span_summary[kind]
                                  for kind in sorted(span_summary)}
    return merged
