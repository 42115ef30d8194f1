"""The coverage signal: a fuzz campaign's measure of the behavior it explored.

Coverage is a set of small string keys describing *which behaviors a run
actually exercised*, derived from two deterministic sources:

* the **typed hook registry** (:class:`~repro.core.hooks.HookRegistry`) — a
  :class:`CoverageCollector` registers for every hook event and records
  distinct firings, relegitimacy depth buckets, supervisor-crash fan-out,
  per-phase drop reasons and disruption-mix orderings as they happen;
* the **spec itself** (:func:`spec_coverage_keys`) — structural dimensions
  the run cannot observe from inside (topology, shard count, partition
  heal-vs-window ordering).

Keys are coarse on purpose: buckets instead of raw values, kinds instead of
magnitudes.  A fuzz campaign's trail records each run that contributed at
least one key nobody had produced before, so the coarseness is what makes
"new coverage" mean "new behavior" rather than "new noise".  Everything here is a pure function of the run (which is a
pure function of the seed), so coverage trails are byte-reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple

from repro.core.hooks import HookRegistry
from repro.scenarios.spec import ScenarioSpec

#: Largest power-of-two relegitimacy bucket; anything deeper is one bucket.
MAX_DEPTH_BUCKET = 256


def depth_bucket(rounds: float) -> str:
    """Power-of-two bucket label for a relegitimacy depth in rounds:
    ``0``, ``<=1``, ``<=2``, ``<=4`` … ``<=256``, ``>256``."""
    if rounds <= 0:
        return "0"
    cap = 1
    while cap < rounds and cap < MAX_DEPTH_BUCKET:
        cap *= 2
    return f"<={cap}" if rounds <= cap else f">{MAX_DEPTH_BUCKET}"


def _disruption_kind(tag: str) -> str:
    """The kind prefix of a :attr:`PhaseSpec.disruptions` tag
    (``"joins=3"`` -> ``"joins"``, ``"partition(0.3, heal@12r)"`` ->
    ``"partition"``, ``"delay×3"`` -> ``"delay"``)."""
    for sep in ("=", "(", "×"):
        head, found, _ = tag.partition(sep)
        if found:
            return head
    return tag


class CoverageMap:
    """The campaign-global set of coverage keys seen so far."""

    __slots__ = ("_keys",)

    def __init__(self, keys: Iterable[str] = ()) -> None:
        self._keys: Set[str] = set(keys)

    def add(self, keys: Iterable[str]) -> List[str]:
        """Merge ``keys``; return the sorted list of genuinely new ones."""
        fresh = sorted(set(keys) - self._keys)
        self._keys.update(fresh)
        return fresh

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def keys(self) -> List[str]:
        return sorted(self._keys)

    def to_dict(self) -> Dict[str, Any]:
        return {"count": len(self._keys), "keys": sorted(self._keys)}


class CoverageCollector:
    """Hook-registry observer that accumulates a run's coverage keys.

    Install on a fresh registry and pass it to the
    :class:`~repro.scenarios.runner.ScenarioRunner` (``hooks=``); the
    runner merges it into the system's registry, so the collector sees
    every typed lifecycle event of the run.
    """

    def __init__(self) -> None:
        self.keys: Set[str] = set()
        #: disruption-mix label of the previous finished phase, for
        #: phase-ordering coverage ("what follows what").
        self._previous_mix: str = "start"

    def install(self, hooks: HookRegistry) -> "CoverageCollector":
        hooks.on_subscribe(self._on_subscribe)
        hooks.on_relegitimacy(self._on_relegitimacy)
        hooks.on_delivery(self._on_delivery)
        hooks.on_supervisor_crash(self._on_supervisor_crash)
        hooks.on_phase(self._on_phase)
        return self

    # ------------------------------------------------------------- hook events
    def _on_subscribe(self, node_id: int, topic: str) -> None:
        self.keys.add("hook:subscribe")

    def _on_relegitimacy(self, topics: Tuple[str, ...], rounds: float) -> None:
        self.keys.add("hook:relegitimacy")
        self.keys.add(f"releg:depth:{depth_bucket(rounds)}")

    def _on_delivery(self, topic: str, expected_keys: frozenset,
                     rounds: float) -> None:
        self.keys.add("hook:delivery")

    def _on_supervisor_crash(self, shard_id: int,
                             moved_topics: Tuple[str, ...]) -> None:
        self.keys.add("hook:supervisor_crash")
        self.keys.add(f"supervisor_crash:moved:{depth_bucket(len(moved_topics))}")

    def _on_phase(self, name: str, phase_report: Any) -> None:
        report = phase_report  # a scenarios.runner.PhaseReport
        self.keys.add("hook:phase")
        kinds = sorted({_disruption_kind(tag) for tag in report.disruptions})
        mix = "+".join(kinds)
        self.keys.add(f"phase:mix:{mix}")
        self.keys.add(f"phase:order:{self._previous_mix}->{mix}")
        self._previous_mix = mix
        self.keys.add(f"phase:releg:{depth_bucket(report.relegitimize_rounds)}")
        self.keys.add(f"phase:relegitimized:{report.relegitimized}")
        if report.delivery_checked:
            self.keys.add(f"phase:delivered:{report.delivered}")
        for reason, count in sorted(report.drops.items()):
            if count:
                self.keys.add(f"drop:{reason}")
        if report.duplicated:
            self.keys.add("dup:observed")
        for invariant, holds in sorted(report.invariants.items()):
            if not holds:
                self.keys.add(f"violated:{invariant}")


def spec_coverage_keys(spec: ScenarioSpec) -> Set[str]:
    """Structural coverage dimensions read off the spec itself."""
    keys: Set[str] = {
        f"topology:{spec.facade}",
        f"shards:{spec.shards}",
        f"topics:{len(spec.topics)}",
        f"phases:{len(spec.phases)}",
    }
    for phase in spec.phases:
        if phase.partition is not None:
            ordering = ("heal_in_window"
                        if phase.partition.heal_after_rounds <= phase.rounds
                        else "heal_in_settle")
            keys.add(f"partition:{ordering}")
    return keys
