"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain-data description of an adversarial
stress-test: which topology to build (one supervisor or K shards), how many
subscribers over which topics, and a sequence of :class:`PhaseSpec` phases.
Each phase opens a *disruption window* (churn, crash waves, publication
storms, link loss/duplication, delay spikes, a partition, a supervisor crash)
and is followed by a *settle window* in which the runner measures
time-to-relegitimacy and publication delivery.

Specs are frozen dataclasses that serialize through the artifact codec
(:mod:`repro.artifact`), so scenarios can live in code
(:mod:`repro.scenarios.library`), in JSON files, or in CI configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.artifact import Artifact
from repro.core.config import DEFAULT_MAX_ROUNDS, require_int_fields

#: Facade selector values accepted by :attr:`ScenarioSpec.facade` — the same
#: values as :data:`repro.api.spec.TOPOLOGIES`.
FACADES = ("single", "sharded")


@dataclass(frozen=True)
class PartitionSpec(Artifact):
    """One partition/heal window opened at the start of a phase.

    ``fraction`` of the current members (sorted, sampled with the scenario
    RNG) is split off into an isolated group; every supervisor stays on the
    majority side.  The cut heals ``heal_after_rounds`` timeout periods after
    the phase starts.
    """

    name: str = "cut"
    fraction: float = 0.5
    heal_after_rounds: float = 10.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("partition fraction must lie strictly in (0, 1)")
        if not 0 <= self.heal_after_rounds < math.inf:
            raise ValueError("heal_after_rounds must be non-negative and finite")


@dataclass(frozen=True)
class PhaseSpec(Artifact):
    """One disruption window plus the invariants expected after it.

    Attributes
    ----------
    name:
        Phase label used in reports.
    rounds:
        Length of the disruption window in timeout periods.  Churn and
        publications are spread uniformly over it.
    settle_rounds:
        Budget (timeout periods) for the system to re-legitimize and for
        publications to converge after the disruption window closes.
    joins / leaves / crashes:
        Individual membership events spread over the window (leave/crash
        victims are drawn from the live members at fire time).
    crash_fraction:
        Instantaneous crash wave at phase start (fraction of current members).
    publications:
        Publications issued by random live members during the window.
    loss_rate / duplicate_rate / delay_spike_factor:
        Adversary toggles, active only during the window.
    partition:
        Optional partition/heal window (see :class:`PartitionSpec`).
    crash_supervisor:
        Sharded facade only: crash one live supervisor shard at phase start
        (its topics rebalance onto the survivors).
    expect_relegitimize / expect_delivery:
        The invariants evaluated after the settle window.  Delivery means:
        every publication that survived anywhere must reach every live
        member of its topic (Theorem 17 under adversity).
    """

    name: str
    rounds: float = 20.0
    settle_rounds: float = 400.0
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    crash_fraction: float = 0.0
    publications: int = 0
    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_spike_factor: float = 1.0
    partition: Optional[PartitionSpec] = None
    crash_supervisor: bool = False
    expect_relegitimize: bool = True
    expect_delivery: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.rounds < math.inf:
            raise ValueError("phase rounds must be positive and finite")
        if not 0 <= self.settle_rounds < math.inf:
            raise ValueError("settle_rounds must be non-negative and finite")
        require_int_fields(self, "joins", "leaves", "crashes", "publications")
        for attr in ("joins", "leaves", "crashes", "publications"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        if not 0.0 <= self.crash_fraction < 1.0:
            raise ValueError("crash_fraction must lie in [0, 1)")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must lie in [0, 1)")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ValueError("duplicate_rate must lie in [0, 1)")
        if not 0 < self.delay_spike_factor < math.inf:
            raise ValueError("delay_spike_factor must be positive and finite")

    @property
    def disruptions(self) -> Tuple[str, ...]:
        """Human-readable tags of everything this phase throws at the system."""
        tags = []
        if self.joins:
            tags.append(f"joins={self.joins}")
        if self.leaves:
            tags.append(f"leaves={self.leaves}")
        if self.crashes:
            tags.append(f"crashes={self.crashes}")
        if self.crash_fraction:
            tags.append(f"crash_wave={self.crash_fraction:g}")
        if self.publications:
            tags.append(f"pubs={self.publications}")
        if self.loss_rate:
            tags.append(f"loss={self.loss_rate:g}")
        if self.duplicate_rate:
            tags.append(f"dup={self.duplicate_rate:g}")
        if self.delay_spike_factor != 1.0:
            tags.append(f"delay×{self.delay_spike_factor:g}")
        if self.partition is not None:
            tags.append(f"partition({self.partition.fraction:g}, "
                        f"heal@{self.partition.heal_after_rounds:g}r)")
        if self.crash_supervisor:
            tags.append("crash_supervisor")
        return tuple(tags) or ("quiet",)


@dataclass(frozen=True)
class ScenarioSpec(Artifact):
    """A named, reproducible adversarial scenario.

    ``facade`` names the topology under test: ``"single"`` is the paper's
    one supervisor, ``"sharded"`` runs ``shards`` supervisors.  Both build
    :class:`~repro.core.facade.SupervisedPubSub` with ``shards`` supervisors;
    the field stays because serialized scenarios carry it.
    ``subscribers`` initial members are spread round-robin over ``topics``
    and stabilized before the first phase starts.
    """

    name: str
    description: str
    facade: str = "single"
    shards: int = 1
    subscribers: int = 16
    topics: Tuple[str, ...] = ("default",)
    phases: Tuple[PhaseSpec, ...] = ()
    max_stabilize_rounds: int = DEFAULT_MAX_ROUNDS

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.facade not in FACADES:
            raise ValueError(f"facade must be one of {FACADES}, got {self.facade!r}")
        require_int_fields(self, "shards", "subscribers", "max_stabilize_rounds")
        if self.facade == "single" and self.shards != 1:
            raise ValueError("the single-supervisor facade has exactly one shard")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.subscribers < 2:
            raise ValueError("a scenario needs at least 2 subscribers")
        if not self.topics:
            raise ValueError("a scenario needs at least one topic")
        if not self.phases:
            raise ValueError("a scenario needs at least one phase")
        if any(p.crash_supervisor for p in self.phases) and self.facade != "sharded":
            raise ValueError("crash_supervisor phases require the sharded facade")

    # ------------------------------------------------------------------ system
    def system_spec(self, seed: int = 0):
        """The :class:`~repro.api.spec.SystemSpec` describing the system this
        scenario runs against.  The runner builds the facade through it, so
        scenarios follow the unified deployment path like every other driver.
        """
        from repro.api.spec import SystemSpec
        return SystemSpec(topology=self.facade, shards=self.shards, seed=seed,
                          max_rounds=self.max_stabilize_rounds)


def load_spec_file(path: str, default_seed: int = 0) -> Tuple[ScenarioSpec, int]:
    """Load a scenario spec file: a bare :class:`ScenarioSpec` dict, or a
    corpus/finding artifact wrapping one under ``"spec"`` alongside the
    ``seed`` the failure was found with.  Returns the spec plus the seed the
    replay must use.  An older artifact's ``"scheduler"`` key is ignored:
    the engine has one event queue."""
    with open(path) as handle:
        data = json.load(handle)
    if "spec" in data and "phases" not in data:
        spec = ScenarioSpec.from_dict(data["spec"])
        return spec, int(data.get("seed", default_seed))
    return ScenarioSpec.from_dict(data), default_seed
