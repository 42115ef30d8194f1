"""Declarative parameter sweeps over a base :class:`~repro.api.spec.SystemSpec`.

A :class:`SweepSpec` names a grid — scenario × shards × n_nodes × loss_rate
× seed replicate — over one base deployment spec, in one frozen value that
serializes through the artifact codec (:mod:`repro.artifact`), like
``SystemSpec`` and ``ScenarioSpec``.  :meth:`SweepSpec.expand` turns the
grid into an ordered list of :class:`SweepTask` points, each with a
**deterministic derived seed**: the seed is hashed from the master seed and
the task's axis coordinates (never its position), so

* the same sweep + master seed always derives the same per-task seeds,
* a task keeps its seed when unrelated axis values are added or removed,
* distinct tasks never share a seed (verified at expansion; a 64-bit hash
  collision raises instead of silently correlating two runs).

Every task point materializes as one scenario run: either a named scenario
from :mod:`repro.scenarios.library` (with the swept axes overriding its
sizing) or, when the scenario axis is unset, a synthesized single-phase
"window" scenario — n subscribers stabilized, then a disruption window of
:class:`~repro.scenarios.spec.PhaseSpec`'s default length and settle
budget with ``publications`` publications under ``loss_rate``, measured by
the standard scenario invariants.  Axes left empty inherit from
the base spec (or the named scenario), so a sweep only states what varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Dict, List, Optional, Tuple

from repro.api.spec import SystemSpec
from repro.artifact import Artifact
from repro.core.config import require_int_fields
from repro.scenarios.spec import PhaseSpec, ScenarioSpec
from repro.sim.rng import derive_seed

#: Default subscriber count of synthesized window scenarios when the sweep
#: does not sweep ``n_nodes``.
DEFAULT_WINDOW_SUBSCRIBERS = 12


@dataclass(frozen=True)
class SweepTask(Artifact, derived=("task_id",)):
    """One expanded grid point.  ``None`` axis values mean "inherited" —
    resolved against the base spec / named scenario by
    :meth:`SweepSpec.scenario_for` and :meth:`SweepSpec.system_for`."""

    index: int
    scenario: Optional[str]
    shards: Optional[int]
    n_nodes: Optional[int]
    loss_rate: Optional[float]
    seed_index: int
    seed: int

    @property
    def task_id(self) -> str:
        parts = [self.scenario or "window"]
        if self.shards is not None:
            parts.append(f"k{self.shards}")
        if self.n_nodes is not None:
            parts.append(f"n{self.n_nodes}")
        if self.loss_rate is not None:
            parts.append(f"loss{self.loss_rate:g}")
        parts.append(f"s{self.seed_index}")
        return "/".join(parts)


@dataclass(frozen=True)
class SweepSpec(Artifact):
    """A named parameter grid over a base deployment spec.

    Attributes
    ----------
    name:
        Sweep name; part of every derived seed and of the campaign artifact.
    base:
        The :class:`~repro.api.spec.SystemSpec` every task inherits from.
        Its ``seed`` is the sweep's **master seed**; its ``shards`` is the
        default for the unswept axis; its protocol/simulator knobs are
        forwarded into every task's system.
    n_nodes / shards / scenarios / loss_rates:
        Axis value tuples.  An empty tuple means the axis is not swept and
        every task inherits the base/scenario value.  ``scenarios`` entries
        are built-in scenario names (:mod:`repro.scenarios.library`); the
        value ``None`` (the default when unswept) synthesizes a window
        scenario instead.
    seeds:
        Number of seed replicates per grid point (>= 1).
    publications / joins / crashes:
        Shape of the synthesized window scenario (ignored for named
        scenarios): publications issued and membership churn spread over
        the window.  The window's length and settle budget are
        :class:`~repro.scenarios.spec.PhaseSpec`'s defaults.
    """

    name: str
    base: SystemSpec = field(default_factory=SystemSpec)
    n_nodes: Tuple[int, ...] = ()
    shards: Tuple[int, ...] = ()
    scenarios: Tuple[Optional[str], ...] = ()
    loss_rates: Tuple[float, ...] = ()
    seeds: int = 1
    publications: int = 4
    joins: int = 0
    crashes: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name:
            raise ValueError("a sweep needs a non-empty name")
        if any(n < 2 for n in self.n_nodes):
            raise ValueError("every n_nodes value must be >= 2")
        if any(k < 1 for k in self.shards):
            raise ValueError("every shards value must be >= 1")
        for scenario in self.scenarios:
            if scenario is not None and not isinstance(scenario, str):
                raise ValueError("scenario axis values must be names or None")
        if any(not 0.0 <= rate < 1.0 for rate in self.loss_rates):
            raise ValueError("every loss_rate must lie in [0, 1)")
        require_int_fields(self, "seeds", "publications", "joins", "crashes")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.publications < 0:
            raise ValueError("publications must be non-negative")
        if self.joins < 0 or self.crashes < 0:
            raise ValueError("joins and crashes must be non-negative")

    # -------------------------------------------------------------- expansion
    @property
    def master_seed(self) -> int:
        return self.base.seed

    def axis_values(self) -> Dict[str, Tuple]:
        """Normalized grid axes in expansion order (empty axes collapse to a
        single inherited point)."""
        return {
            "scenario": self.scenarios or (None,),
            "shards": self.shards or (None,),
            "n_nodes": self.n_nodes or (None,),
            "loss_rate": self.loss_rates or (None,),
            "seed_index": tuple(range(self.seeds)),
        }

    def derive_task_seed(self, scenario: Optional[str], shards: Optional[int],
                         n_nodes: Optional[int], loss_rate: Optional[float],
                         seed_index: int) -> int:
        """Deterministic per-task seed from the master seed and the task's
        axis coordinates — stable under grid growth, independent of task
        position."""
        return derive_seed(
            self.master_seed, "sweep", self.name, "task",
            scenario if scenario is not None else "<inherit>",
            shards if shards is not None else "<inherit>",
            "wheel",  # the retired scheduler axis: keeps every derived seed
            n_nodes if n_nodes is not None else "<inherit>",
            f"{float(loss_rate)!r}" if loss_rate is not None else "<inherit>",
            seed_index)

    def expand(self) -> List[SweepTask]:
        """The ordered task list of this grid (deterministic: axis order is
        fixed, seeds are coordinate-derived, collisions raise)."""
        tasks: List[SweepTask] = []
        seen: Dict[int, str] = {}
        axes = self.axis_values()
        for index, point in enumerate(product(*axes.values())):
            seed = self.derive_task_seed(*point)
            scenario, shards, n_nodes, loss_rate, seed_index = point
            task = SweepTask(index=index, scenario=scenario, shards=shards,
                             n_nodes=n_nodes, loss_rate=loss_rate,
                             seed_index=seed_index, seed=seed)
            if seed in seen:  # pragma: no cover - 64-bit collision
                raise RuntimeError(
                    f"derived-seed collision between tasks {seen[seed]!r} "
                    f"and {task.task_id!r}; rename the sweep")
            seen[seed] = task.task_id
            tasks.append(task)
        return tasks

    # ------------------------------------------------------------ realization
    def scenario_for(self, task: SweepTask) -> ScenarioSpec:
        """The concrete scenario this task runs: the named library scenario
        with swept axes overriding its sizing, or a synthesized single-phase
        window scenario."""
        if task.scenario is not None:
            from repro.scenarios.library import get_scenario
            spec = get_scenario(task.scenario)
            overrides: Dict[str, Any] = {}
            if task.n_nodes is not None:
                overrides["subscribers"] = task.n_nodes
            if task.shards is not None:
                overrides["shards"] = task.shards
                overrides["facade"] = "sharded" if task.shards > 1 else "single"
            if task.loss_rate is not None:
                overrides["phases"] = tuple(
                    replace(phase, loss_rate=task.loss_rate)
                    for phase in spec.phases)
            return spec.with_overrides(**overrides) if overrides else spec
        shards = task.shards if task.shards is not None else self.base.shards
        n_nodes = task.n_nodes if task.n_nodes is not None \
            else DEFAULT_WINDOW_SUBSCRIBERS
        loss_rate = task.loss_rate if task.loss_rate is not None else 0.0
        return ScenarioSpec(
            name=f"{self.name}-window",
            description=f"synthesized disruption window of sweep {self.name!r}",
            facade="sharded" if shards > 1 else "single",
            shards=shards,
            subscribers=n_nodes,
            topics=("sweep",),
            phases=(PhaseSpec(name="window", publications=self.publications,
                              joins=self.joins, crashes=self.crashes,
                              loss_rate=loss_rate),))

    def system_for(self, task: SweepTask,
                   scenario: Optional[ScenarioSpec] = None) -> SystemSpec:
        """The deployment spec of this task's system: the base spec (protocol
        and simulator knobs included) specialized to the task's resolved
        topology and derived seed.  Pass the already-resolved
        ``scenario`` when you have one to avoid rebuilding it."""
        if scenario is None:
            scenario = self.scenario_for(task)
        return self.base.with_overrides(
            topology=scenario.facade, shards=scenario.shards,
            seed=task.seed,
            max_rounds=scenario.max_stabilize_rounds)
