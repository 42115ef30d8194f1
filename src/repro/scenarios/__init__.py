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
  unified :class:`~repro.api.report.RunReport` via
  :meth:`~repro.api.report.RunReport.from_scenario`;
* :mod:`repro.scenarios.library` — built-in scenarios (``flash-crowd``,
  ``rolling-partition``, ``lossy-network``, ...), run from the command line
  by ``python -m repro scenario``.

>>> from repro.scenarios import ScenarioRunner, get_scenario
>>> report = ScenarioRunner(get_scenario("lossy-network"), seed=1).run()
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
]
