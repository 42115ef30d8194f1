"""Telemetry as text: the payload of a report artifact and its tables.

``python -m repro metrics`` prints these; ``python -m repro scenario
--telemetry`` appends them to each scenario report.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.api.report import format_table
from repro.telemetry.histogram import LatencyHistogram


def _histogram_lines(label: str, payload: Dict[str, Any]) -> List[str]:
    hist = LatencyHistogram.from_dict(payload)
    summary = hist.summary()
    lines = [f"{label} ({hist.unit}): count={summary['count']} "
             f"p50={summary['p50']} p90={summary['p90']} "
             f"p99={summary['p99']} max={summary['max']}"]
    if hist.total:
        rows = []
        cumulative = 0
        lower = 0.0
        for bound, count in zip(hist.bounds, hist.slots):
            if count:
                cumulative += count
                rows.append((f"({lower:g}, {bound:g}]", count,
                             f"{100.0 * cumulative / hist.total:.1f}%"))
            lower = bound
        if hist.overflow:
            rows.append((f"> {hist.bounds[-1]:g}", hist.overflow, "100.0%"))
        lines.append(format_table(["bucket", "count", "cum"], rows))
    return lines


def render_telemetry(payload: Dict[str, Any], spans: bool = False) -> str:
    """Histogram summaries and bucket tables, the span summary, and (with
    ``spans``) the raw span timeline of one telemetry payload."""
    parts: List[str] = []
    if "runs" in payload:
        parts.append(f"merged telemetry across {payload['runs']} runs")
    for label, key in (("delivery latency", "delivery_latency"),
                       ("stabilization latency", "stabilization_rounds")):
        if payload.get(key):
            if parts:
                parts.append("")
            parts.extend(_histogram_lines(label, payload[key]))
    span_summary = payload.get("span_summary")
    if span_summary:
        parts.append("")
        parts.append("spans:")
        parts.append(format_table(
            ["kind", "count", "total (sim s)", "max (sim s)"],
            [(kind, entry["count"], entry["total"], entry["max"])
             for kind, entry in sorted(span_summary.items())]))
    if spans and payload.get("spans"):
        parts.append("")
        parts.append("span timeline:")
        parts.append(format_table(
            ["kind", "name", "start", "end"],
            [tuple(row) for row in payload["spans"]]))
    return "\n".join(parts)
