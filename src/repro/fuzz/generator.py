"""Seeded generation over the full ScenarioSpec fault space.

Every spec a :class:`SpecGenerator` produces is **valid by construction**:
magnitudes are drawn inside the bounds :class:`~repro.scenarios.spec`
validates (loss/duplication rates in ``[0, 1)``, partition fractions in
``(0, 1)``, ``crash_supervisor`` only on the sharded facade, enough
subscribers per topic for crash waves to leave two live members), and the
resulting :class:`~repro.scenarios.spec.ScenarioSpec` is still constructed
through its validating ``__post_init__`` — a generator bug raises loudly
instead of producing an unrunnable spec.  Specs inherit the spec layer's
lossless JSON round-trip, so any generated case can be written down,
replayed, shrunk, and committed as a regression artifact.

Generation is a pure function of the :class:`random.Random` stream passed
in (always a :func:`repro.sim.rng.derive_rng` stream in practice), which is
what makes whole fuzz campaigns byte-reproducible.

The fault dimensions covered — the full product space every draw samples:

* **link faults** — probabilistic loss, duplication, delay spikes;
* **named partitions** with heals scheduled either inside the disruption
  window or into the settle window;
* **churn storms** — join/leave/crash event streams over the window;
* **crash waves** — instantaneous fractional membership loss;
* **supervisor crashes** and **shard counts** on the sharded facade;
* **publication storms** that make the delivery invariant meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.artifact import Artifact
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec

#: The disruption kinds a generated phase samples from (``crash_supervisor``
#: joins the menu only on the sharded facade).
PHASE_KINDS = ("churn", "crash_wave", "publications", "loss", "duplication",
               "delay_spike", "partition")

#: Fixed bounds of the fault space: topics and shards per spec, the largest
#: crash-wave fraction and loss/duplication rates, the delay-spike factors,
#: the chance a spec is sharded and that a sharded phase may crash a shard.
MAX_TOPICS = 2
MAX_SHARDS = 3
MAX_CRASH_FRACTION = 0.34
MAX_LOSS_RATE = 0.18
MAX_DUPLICATE_RATE = 0.12
DELAY_SPIKE_FACTORS = (2.0, 3.0, 5.0)
SHARDED_PROBABILITY = 0.4
CRASH_SUPERVISOR_PROBABILITY = 0.25


@dataclass(frozen=True)
class GeneratorLimits(Artifact):
    """Bounds of the generated fault space that set how long a spec runs.

    The defaults size specs to run in roughly a second each, so a fuzz
    campaign gets through a meaningful number of iterations per minute;
    tests shrink them further, large hunts can raise them.  All bounds are
    inclusive and serialize through the artifact codec.  The bounds no
    profile varies are the module constants above.
    """

    max_phases: int = 3
    min_subscribers: int = 8
    max_subscribers: int = 18
    min_rounds: float = 8.0
    max_rounds: float = 24.0
    settle_rounds: float = 300.0
    max_churn_ops: int = 4
    max_publications: int = 6

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_phases < 1:
            raise ValueError("max_phases must be >= 1")
        if self.min_subscribers < 2:
            raise ValueError("min_subscribers must be >= 2")
        if self.max_subscribers < self.min_subscribers:
            raise ValueError("max_subscribers must be >= min_subscribers")
        if not 0 < self.min_rounds <= self.max_rounds:
            raise ValueError("need 0 < min_rounds <= max_rounds")
        if self.settle_rounds < 0:
            raise ValueError("settle_rounds must be non-negative")
        if self.max_churn_ops < 1:
            raise ValueError("max_churn_ops must be >= 1")
        if self.max_publications < 1:
            raise ValueError("max_publications must be >= 1")


#: The sized-down fault space ``fuzz --quick`` draws from: specs run in a
#: fraction of a second each, so a ~60 s CI smoke job still runs thousands.
QUICK_LIMITS = GeneratorLimits(
    max_phases=2, min_subscribers=6, max_subscribers=10, min_rounds=6.0,
    max_rounds=12.0, settle_rounds=200.0, max_churn_ops=3, max_publications=4)


class SpecGenerator:
    """Draw valid :class:`ScenarioSpec`\\ s from an RNG."""

    def __init__(self, limits: Optional[GeneratorLimits] = None) -> None:
        self.limits = limits if limits is not None else GeneratorLimits()

    def random_spec(self, rng: random.Random, name: str) -> ScenarioSpec:
        """One fresh spec drawn uniformly-ish over the fault space."""
        limits = self.limits
        sharded = rng.random() < SHARDED_PROBABILITY
        shards = rng.randint(2, MAX_SHARDS) if sharded else 1
        n_topics = rng.randint(1, MAX_TOPICS)
        topics = tuple(f"t{i}" for i in range(n_topics))
        # Round-robin spread plus crash headroom: every topic keeps >= 2
        # live members through the worst crash wave the limits allow.
        floor = max(limits.min_subscribers, 4 * n_topics)
        subscribers = rng.randint(floor, max(floor, limits.max_subscribers))
        n_phases = rng.randint(1, limits.max_phases)
        phases = tuple(self._random_phase(rng, i, sharded)
                       for i in range(n_phases))
        return ScenarioSpec(
            name=name,
            description="generated scenario",
            facade="sharded" if sharded else "single",
            shards=shards, subscribers=subscribers, topics=topics,
            phases=phases)

    def _random_phase(self, rng: random.Random, index: int,
                      sharded: bool) -> PhaseSpec:
        limits = self.limits
        menu: List[str] = list(PHASE_KINDS)
        if sharded and rng.random() < CRASH_SUPERVISOR_PROBABILITY:
            menu.append("crash_supervisor")
        kinds = rng.sample(menu, rng.randint(1, min(3, len(menu))))
        rounds = round(rng.uniform(limits.min_rounds, limits.max_rounds), 1)

        fields: Dict[str, Any] = {}
        for kind in kinds:
            if kind == "churn":
                ops = {"joins": 0, "leaves": 0, "crashes": 0}
                for key in rng.sample(sorted(ops), rng.randint(1, 3)):
                    ops[key] = rng.randint(1, limits.max_churn_ops)
                fields.update(ops)
            elif kind == "crash_wave":
                fields["crash_fraction"] = round(
                    rng.uniform(0.1, MAX_CRASH_FRACTION), 2)
            elif kind == "publications":
                fields["publications"] = rng.randint(1, limits.max_publications)
            elif kind == "loss":
                fields["loss_rate"] = round(
                    rng.uniform(0.02, MAX_LOSS_RATE), 3)
            elif kind == "duplication":
                fields["duplicate_rate"] = round(
                    rng.uniform(0.02, MAX_DUPLICATE_RATE), 3)
            elif kind == "delay_spike":
                fields["delay_spike_factor"] = rng.choice(DELAY_SPIKE_FACTORS)
            elif kind == "partition":
                # heal_after_rounds may land inside the disruption window or
                # run into the settle window: both orderings are drawn.
                fields["partition"] = PartitionSpec(
                    name=f"cut{index}",
                    fraction=round(rng.uniform(0.15, 0.45), 2),
                    heal_after_rounds=round(rng.uniform(4.0, rounds + 10.0), 1))
            elif kind == "crash_supervisor":
                fields["crash_supervisor"] = True
        return PhaseSpec(name=f"p{index}", rounds=rounds,
                         settle_rounds=limits.settle_rounds, **fields)


def generated_name(fuzz_seed: int, iteration: int) -> str:
    """The canonical name of the spec generated at ``iteration`` of the
    campaign seeded with ``fuzz_seed`` (stable across runs and job counts)."""
    return f"fuzz-s{fuzz_seed}-i{iteration:05d}"
