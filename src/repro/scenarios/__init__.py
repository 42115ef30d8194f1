"""Declarative adversarial scenarios for the supervised pub-sub system.

This subsystem turns the paper's self-stabilization claims into a reusable
stress harness:

* :mod:`repro.scenarios.adversary` — a seeded link adversary (loss,
  duplication, delay spikes, named partitions with scheduled heals) hooked
  into :class:`repro.sim.network.Network`;
* :mod:`repro.scenarios.spec` — plain-data scenario descriptions with a
  lossless JSON round-trip;
* :mod:`repro.scenarios.runner` — drives a spec against either topology (built
  through the unified :mod:`repro.api` deployment path) and evaluates
  invariants into a deterministic :class:`ScenarioReport`, viewable as a
  unified :class:`~repro.api.report.RunReport` via ``to_run_report()``;
* :mod:`repro.scenarios.library` — built-in scenarios (``flash-crowd``,
  ``rolling-partition``, ``lossy-network``, ...);
* :mod:`repro.scenarios.cli` — ``python -m repro.scenarios`` /
  ``repro-scenarios``.

>>> from repro.scenarios import get_scenario, run_scenario
>>> report = run_scenario(get_scenario("lossy-network"), seed=1)
>>> report.passed
True
"""

from repro.scenarios.adversary import (
    DelaySpike,
    LinkAdversary,
    LinkVerdict,
    Partition,
)
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.runner import (
    PhaseReport,
    ScenarioReport,
    ScenarioRunner,
    run_scenario,
)
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec

__all__ = [
    "DelaySpike",
    "LinkAdversary",
    "LinkVerdict",
    "Partition",
    "PartitionSpec",
    "PhaseReport",
    "PhaseSpec",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "SCENARIOS",
    "get_scenario",
    "run_scenario",
]
