"""Run-wide deterministic telemetry: latency histograms, phase spans, tables.

Everything here is byte-reproducible by construction (integer bucket
counts, spec-derived bounds, rounded sim-time floats) so telemetry can ride
inside the canonical report artifacts without breaking their byte-identity
guarantees.  The subsystem is off by default; ``SystemSpec.telemetry`` is its
one switch, and enabling it adds one histogram slot bump per delivery,
inline in the engine's drain loop.

Public surface:

* :class:`~repro.telemetry.histogram.LatencyHistogram` — log-bucketed,
  mergeable latency counts with report-time percentiles.
* :class:`~repro.telemetry.spans.SpanTimeline` — sim-time phase spans.
* :class:`~repro.telemetry.recorder.TelemetryRecorder` — per-system
  collector wired into the typed hook registry (``system.telemetry``).
* :mod:`repro.telemetry.render` — the telemetry of any
  RunReport/CampaignReport JSON artifact as tables (``python -m repro
  metrics``).
"""

from repro.telemetry.histogram import (LatencyHistogram, ROUNDS_SPEC,
                                       SIM_SECONDS_SPEC, bounds_from_spec,
                                       merge_histogram_dicts)
from repro.telemetry.recorder import TelemetryRecorder, merge_telemetry_dicts
from repro.telemetry.spans import SpanTimeline

__all__ = [
    "LatencyHistogram",
    "ROUNDS_SPEC",
    "SIM_SECONDS_SPEC",
    "SpanTimeline",
    "TelemetryRecorder",
    "bounds_from_spec",
    "merge_histogram_dicts",
    "merge_telemetry_dicts",
]
