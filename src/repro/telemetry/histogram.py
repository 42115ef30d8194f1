"""Fixed-bucket latency histograms: deterministic, mergeable, cheap.

The histogram is the telemetry layer's unit of aggregation.  Design rules,
in order of importance:

1. **Byte-reproducible.**  Bucket bounds are derived from a small integer
   *spec* (``(lo_exp, hi_exp, per_decade)``) so every worker process builds
   the identical ``tuple`` of bounds; the state is integer counts plus one
   exact running maximum — no float accumulation, no mean, nothing whose
   value depends on summation order.
2. **Mergeable.**  :meth:`merge` adds integer counts element-wise and takes
   the max of maxima, so merging per-task histograms from an exec campaign
   is associative and (for equal specs) independent of worker count.
3. **Cheap to record.**  The state is one slot list (the overflow bucket
   last; ``total`` and ``overflow`` are read from it) and a sample is one
   :func:`bisect.bisect_left` into a ~40-entry tuple, one slot bump and a
   max test — which the engine's drain loop does inline, with no method
   frame (see ``SystemSpec.telemetry``); :meth:`record` is that for every
   other caller.

Percentiles are *derived at report time*: a percentile resolves to the
upper bound of the bucket containing its rank, clamped to the exact
recorded maximum (so the percentile chain never crosses ``max``); anything
landing in the overflow bucket (or ``p100``) reports the exact maximum.
That makes percentile output a pure function of the serialized state.

This module deliberately imports nothing from the rest of :mod:`repro` so
the engine/network hot paths can use it without cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Spec for sim-seconds latencies (delivery): 10^-2 .. 10^3 s, 8 buckets per
#: decade -> 41 bounds.  Message delays live in [min_delay, max_delay]
#: (defaults 0.1..1.0 s) so real mass sits decades inside the range.
SIM_SECONDS_SPEC: Tuple[int, int, int] = (-2, 3, 8)

#: Spec for round-denominated latencies (subscribe -> stabilization):
#: 10^-1 .. 10^4 rounds covers everything up to and past the default
#: ``max_rounds = 2000`` driver bound.
ROUNDS_SPEC: Tuple[int, int, int] = (-1, 4, 8)

_PERCENTILES = (50, 90, 99)


def bounds_from_spec(spec: Sequence[int]) -> Tuple[float, ...]:
    """Log-spaced bucket upper bounds for ``(lo_exp, hi_exp, per_decade)``.

    Bounds are rounded to 6 decimals so their JSON rendering (and any
    percentile derived from them) is platform-stable.
    """
    lo_exp, hi_exp, per_decade = (int(v) for v in spec)
    if hi_exp <= lo_exp:
        raise ValueError(f"empty spec range: {spec!r}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1: {spec!r}")
    steps = (hi_exp - lo_exp) * per_decade
    return tuple(round(10.0 ** (lo_exp + i / per_decade), 6)
                 for i in range(steps + 1))


class LatencyHistogram:
    """Log-bucketed histogram with integer counts and an exact max."""

    __slots__ = ("spec", "unit", "bounds", "slots", "max_value")

    def __init__(self, spec: Sequence[int] = SIM_SECONDS_SPEC,
                 unit: str = "sim_seconds") -> None:
        self.spec = tuple(int(v) for v in spec)
        self.unit = unit
        self.bounds = bounds_from_spec(self.spec)
        #: one count per bucket, then the overflow bucket; never rebound, so
        #: the engine's drain captures it once per run
        self.slots: List[int] = [0] * (len(self.bounds) + 1)
        #: exact maximum recorded value (0.0 while empty; gate on ``total``)
        self.max_value = 0.0

    @property
    def overflow(self) -> int:
        return self.slots[-1]

    @property
    def total(self) -> int:
        return sum(self.slots)

    # ------------------------------------------------------------- recording
    def record(self, value: float) -> None:
        """Count one observation.  Values below the lowest bound land in
        bucket 0; values above the highest land in the overflow bucket."""
        self.slots[bisect_left(self.bounds, value)] += 1
        if value > self.max_value:
            self.max_value = value

    # ----------------------------------------------------------- combination
    def _require_compatible(self, other: "LatencyHistogram") -> None:
        if self.spec != other.spec or self.unit != other.unit:
            raise ValueError(
                f"incompatible histograms: {self.spec}/{self.unit} vs "
                f"{other.spec}/{other.unit}")

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram in place (same spec+unit)."""
        self._require_compatible(other)
        self.slots[:] = [a + b for a, b in zip(self.slots, other.slots)]
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def copy(self) -> "LatencyHistogram":
        clone = LatencyHistogram(self.spec, self.unit)
        clone.slots[:] = self.slots
        clone.max_value = self.max_value
        return clone

    def delta(self, earlier: "LatencyHistogram") -> "LatencyHistogram":
        """Counts recorded since ``earlier`` (a prior :meth:`copy`).

        The delta's ``max_value`` is the running max at the *later*
        snapshot — per-interval maxima are not recoverable from counts.
        """
        self._require_compatible(earlier)
        diff = LatencyHistogram(self.spec, self.unit)
        diff.slots[:] = [a - b for a, b in zip(self.slots, earlier.slots)]
        diff.max_value = self.max_value
        if min(diff.slots) < 0:
            raise ValueError("delta against a later snapshot")
        return diff

    # ------------------------------------------------------------ derivation
    def percentile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the ``q``-th percentile rank,
        clamped to the exact recorded max so ``p50 <= p90 <= p99 <= max``
        always holds (a bucket bound can exceed the max when every
        observation sits below it); ranks in the overflow bucket report the
        exact max.  ``None`` when empty."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if self.total == 0:
            return None
        # ceil(q/100 * total) without float rounding surprises.
        target = max(1, -(-int(q * self.total) // 100))
        cumulative = 0
        for bound, count in zip(self.bounds, self.slots):
            cumulative += count
            if cumulative >= target:
                return round(min(bound, self.max_value), 6)
        return round(self.max_value, 6)

    def summary(self) -> Dict[str, object]:
        """Report-time digest: count, max and the standard percentiles."""
        out: Dict[str, object] = {
            "count": self.total,
            "max": round(self.max_value, 6) if self.total else None,
            "unit": self.unit,
        }
        for q in _PERCENTILES:
            out[f"p{q}"] = self.percentile(q)
        return out

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, object]:
        """Sparse lossless form: only non-zero buckets are written."""
        return {
            "spec": list(self.spec),
            "unit": self.unit,
            "total": self.total,
            "overflow": self.overflow,
            "max": round(self.max_value, 6) if self.total else None,
            "counts": {str(i): c for i, c in enumerate(self.slots[:-1]) if c},
        }

    def to_report_dict(self) -> Dict[str, object]:
        """Lossless state plus the derived :meth:`summary` block."""
        payload = self.to_dict()
        payload["summary"] = self.summary()
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyHistogram":
        hist = cls(tuple(data["spec"]), str(data["unit"]))
        slots = hist.slots
        for key, count in dict(data.get("counts", {})).items():
            slots[int(key)] = int(count)
        slots[-1] = int(data.get("overflow", 0))
        if int(data["total"]) != hist.total:  # the total is derived, not stored
            raise ValueError(f"histogram total {data['total']!r} is not the "
                             f"sum of its buckets ({hist.total})")
        raw_max = data.get("max")
        hist.max_value = float(raw_max) if raw_max is not None else 0.0
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LatencyHistogram(unit={self.unit!r}, total={self.total}, "
                f"max={self.max_value!r})")


def merge_histogram_dicts(
        dicts: Iterable[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """Merge serialized histograms (e.g. one per campaign task) into one
    serialized histogram; ``None`` when the iterable is empty.  Integer
    counts make the result independent of merge order."""
    merged: Optional[LatencyHistogram] = None
    for payload in dicts:
        hist = LatencyHistogram.from_dict(payload)
        if merged is None:
            merged = hist
        else:
            merged.merge(hist)
    return merged.to_dict() if merged is not None else None
