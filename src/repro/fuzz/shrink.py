"""Delta-debugging shrinker: minimize a failing spec, re-checking each step.

Given a spec whose run fails the oracle (or crashes), the shrinker
searches for a smaller spec that *still fails with the same signature*, in
three candidate tiers applied greedily to a fixpoint:

1. **phases** — keep a single phase, or drop one phase (1-minimality: when
   the shrinker is done, removing any remaining phase makes the failure
   disappear — asserted by the tests);
2. **events** — neutralize one disruption of one phase (zero the churn
   counts, drop the partition, un-crash the supervisor, …), and collapse a
   sharded facade to single-supervisor once nothing needs shards;
3. **magnitudes** — shrink numeric fields (subscribers, shards, window
   rounds, churn counts, rates, fractions) toward their floor, big jump
   first, halving after.

Every accepted candidate was re-run and re-checked; rejected candidates are
cached so the greedy restarts never pay twice.  The check function is
injected (the campaign supplies one that runs the candidate through the
fault-tolerant exec layer and compares verdict signatures), which keeps the
shrinker itself a pure, deterministic search.

A subtlety worth the capital letters: the scenario runner derives its phase
RNG streams from ``(seed, spec.name, phase index)``, so candidates MUST
keep the failing spec's exact name — renaming a spec reseeds the run and
the failure may evaporate.  The shrinker therefore never touches ``name``
(nor ``description``); artifact writers may relabel only *around* the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.artifact import Artifact
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec

#: ``still_fails(candidate)`` — run the candidate and report whether it
#: fails with the same signature as the original finding.
CheckFn = Callable[[ScenarioSpec], bool]

#: (attribute, neutral value) pairs tried by the event tier, in order.
NEUTRAL_FIELDS: Tuple[Tuple[str, object], ...] = (
    ("joins", 0),
    ("leaves", 0),
    ("crashes", 0),
    ("crash_fraction", 0.0),
    ("publications", 0),
    ("loss_rate", 0.0),
    ("duplicate_rate", 0.0),
    ("delay_spike_factor", 1.0),
    ("partition", None),
    ("crash_supervisor", False),
)


@dataclass
class ShrinkOutcome(Artifact):
    """What the shrinker produced and what it cost."""

    spec: ScenarioSpec
    evals: int = 0
    accepted_steps: int = 0
    budget_exhausted: bool = False


class Shrinker:
    """Greedy ddmin-style minimizer over the ScenarioSpec space."""

    def __init__(self, still_fails: CheckFn, budget: int = 150) -> None:
        if budget < 1:
            raise ValueError("shrink budget must be >= 1")
        self.still_fails = still_fails
        self.budget = budget
        self.evals = 0
        self._cache: Dict[str, bool] = {}
        self._exhausted = False

    # ------------------------------------------------------------------ checks
    def _check(self, spec: ScenarioSpec) -> bool:
        key = spec.to_json()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.evals >= self.budget:
            # Out of budget: claim the candidate passes so the current
            # (known-failing) spec is kept.  Flagged on the outcome.
            self._exhausted = True
            return False
        self.evals += 1
        verdict = self.still_fails(spec)
        self._cache[key] = verdict
        return verdict

    # -------------------------------------------------------------- candidates
    def _candidates(self, spec: ScenarioSpec
                    ) -> Iterator[ScenarioSpec]:
        """Simplification candidates of ``spec``, most aggressive first.
        Invalid combinations are skipped (ScenarioSpec validates on
        construction)."""
        yield from self._phase_candidates(spec)
        yield from self._event_candidates(spec)
        yield from self._magnitude_candidates(spec)

    @staticmethod
    def _try(spec: ScenarioSpec, **overrides: object
             ) -> Optional[ScenarioSpec]:
        try:
            return replace(spec, **overrides)  # type: ignore[arg-type]
        except ValueError:
            return None

    def _phase_candidates(self, spec: ScenarioSpec
                          ) -> Iterator[ScenarioSpec]:
        phases = spec.phases
        if len(phases) <= 1:
            return
        # Fast path: a single phase alone reproduces the failure.
        for index in range(len(phases)):
            candidate = self._try(spec, phases=(phases[index],))
            if candidate is not None:
                yield candidate
        # One-at-a-time removal (the pass that guarantees 1-minimality).
        for index in range(len(phases)):
            rest = tuple(p for i, p in enumerate(phases) if i != index)
            candidate = self._try(spec, phases=rest)
            if candidate is not None:
                yield candidate

    def _event_candidates(self, spec: ScenarioSpec
                          ) -> Iterator[ScenarioSpec]:
        for index, phase in enumerate(spec.phases):
            for attr, neutral in NEUTRAL_FIELDS:
                if getattr(phase, attr) == neutral:
                    continue
                new_phase = self._try_phase(phase, **{attr: neutral})
                if new_phase is None:
                    continue
                phases = list(spec.phases)
                phases[index] = new_phase
                candidate = self._try(spec, phases=tuple(phases))
                if candidate is not None:
                    yield candidate
        if (spec.facade == "sharded"
                and not any(p.crash_supervisor for p in spec.phases)):
            candidate = self._try(spec, facade="single", shards=1)
            if candidate is not None:
                yield candidate

    @staticmethod
    def _try_phase(phase: PhaseSpec, **overrides: object
                   ) -> Optional[PhaseSpec]:
        try:
            return replace(phase, **overrides)  # type: ignore[arg-type]
        except ValueError:
            return None

    def _magnitude_candidates(self, spec: ScenarioSpec
                              ) -> Iterator[ScenarioSpec]:
        # Top-level sizing: fewer topics, fewer subscribers, fewer shards.
        if len(spec.topics) > 1:
            candidate = self._try(spec, topics=spec.topics[:1])
            if candidate is not None:
                yield candidate
        floor = max(4, 2 * len(spec.topics))
        for value in _shrink_ladder_int(spec.subscribers, floor):
            candidate = self._try(spec, subscribers=value)
            if candidate is not None:
                yield candidate
        if spec.facade == "sharded":
            for value in _shrink_ladder_int(spec.shards, 2):
                candidate = self._try(spec, shards=value)
                if candidate is not None:
                    yield candidate
        # Per-phase numerics.  settle_rounds is deliberately NOT shrunk:
        # cutting the convergence budget manufactures failures instead of
        # minimizing the existing one.
        for index, phase in enumerate(spec.phases):
            for attr, floor_value in (("joins", 1), ("leaves", 1),
                                      ("crashes", 1), ("publications", 1)):
                for value in _shrink_ladder_int(getattr(phase, attr),
                                                floor_value):
                    yield from self._phase_override(spec, index, attr, value)
            for attr, floor_f in (("rounds", 2.0), ("crash_fraction", 0.05),
                                  ("loss_rate", 0.01),
                                  ("duplicate_rate", 0.01),
                                  ("delay_spike_factor", 2.0)):
                for value in _shrink_ladder_float(getattr(phase, attr),
                                                  floor_f):
                    yield from self._phase_override(spec, index, attr, value)
            if phase.partition is not None:
                for value in _shrink_ladder_float(
                        phase.partition.heal_after_rounds, 1.0):
                    partition = PartitionSpec(
                        name=phase.partition.name,
                        fraction=phase.partition.fraction,
                        heal_after_rounds=value)
                    yield from self._phase_override(spec, index, "partition",
                                                    partition)

    def _phase_override(self, spec: ScenarioSpec, index: int, attr: str,
                        value: object) -> Iterator[ScenarioSpec]:
        new_phase = self._try_phase(spec.phases[index], **{attr: value})
        if new_phase is None:
            return
        phases = list(spec.phases)
        phases[index] = new_phase
        candidate = self._try(spec, phases=tuple(phases))
        if candidate is not None:
            yield candidate

    # -------------------------------------------------------------------- run
    def shrink(self, spec: ScenarioSpec) -> ShrinkOutcome:
        """Minimize ``spec``, preserving its failure signature.  ``spec``
        itself is assumed failing (the campaign observed it fail)."""
        current = spec
        accepted = 0
        improved = True
        while improved and not self._exhausted:
            improved = False
            for candidate in self._candidates(current):
                if candidate.to_dict() == current.to_dict():
                    continue
                if self._check(candidate):
                    current = candidate
                    accepted += 1
                    improved = True
                    break
        return ShrinkOutcome(spec=current, evals=self.evals,
                             accepted_steps=accepted,
                             budget_exhausted=self._exhausted)


def _shrink_ladder_int(value: int, floor: int) -> List[int]:
    """Strictly descending-toward-``floor`` candidates: the floor first
    (biggest win), then the halfway point.  Empty when already at/below."""
    if value <= floor:
        return []
    ladder = [floor]
    mid = (value + floor) // 2
    if floor < mid < value:
        ladder.append(mid)
    return ladder


def _shrink_ladder_float(value: float, floor: float,
                         digits: int = 2) -> List[float]:
    """Float version of the shrink ladder (quantized so specs stay tidy)."""
    if value <= floor:
        return []
    ladder = [floor]
    mid = round((value + floor) / 2.0, digits)
    if floor < mid < value:
        ladder.append(mid)
    return ladder
