"""Adversarial scenario fuzzer with auto-shrink.

The scenario library (7 hand-written scenarios) proves the paper's
self-stabilization claims against the faults a human thought of; this
package is the machine that imagines the rest.  Four pieces:

* **Generation** (:mod:`repro.fuzz.generator`) — seeded, valid-by-
  construction fresh draws over the full
  :class:`~repro.scenarios.spec.ScenarioSpec` fault space: loss ×
  duplication × delay spikes × named partitions/heals × churn storms ×
  crash waves × shard counts.
* **Coverage** (:mod:`repro.fuzz.coverage`) — a behavior signal derived
  from the typed hook registry and ChannelStats (distinct hook firings,
  drop reasons, partition/heal orderings, relegitimacy depth buckets) that
  measures how much behavior a campaign explored.  It does not steer
  generation: a planted-bug ablation (FUZZING.md) found fresh draws at
  least as good as mutating coverage-discovering specs.
* **Oracle + shrink** (:mod:`repro.fuzz.oracle`, :mod:`repro.fuzz.shrink`)
  — invariant violations and pathological stabilization become findings; a
  delta-debugging shrinker minimizes phases → events → magnitudes while
  re-checking the failure signature each step, and emits a corpus-ready
  JSON artifact (``tests/corpus/`` replays them as regressions).
* **Campaign** (:mod:`repro.fuzz.campaign`) — the budgeted loop, fanned
  out through the **fault-tolerant** :mod:`repro.exec` layer (a raising
  case becomes a ``crash`` record, not an aborted campaign) on the worker
  processes of a stdlib pool, opened per run, with byte-reproducible
  reports at any ``--jobs`` value.

CLI: ``python -m repro fuzz``.  The full
design — coverage-key grammar, shrink algorithm, corpus layout, triage
workflow — is documented in FUZZING.md.
"""

from repro.fuzz.campaign import (
    FuzzCampaign,
    FuzzConfig,
    FuzzFinding,
    FuzzReport,
)
from repro.fuzz.coverage import CoverageCollector, CoverageMap, spec_coverage_keys
from repro.fuzz.generator import GeneratorLimits, SpecGenerator, generated_name
from repro.fuzz.oracle import OracleSpec, Verdict, evaluate
from repro.fuzz.shrink import Shrinker, ShrinkOutcome

__all__ = [
    "CoverageCollector",
    "CoverageMap",
    "FuzzCampaign",
    "FuzzConfig",
    "FuzzFinding",
    "FuzzReport",
    "GeneratorLimits",
    "OracleSpec",
    "Shrinker",
    "ShrinkOutcome",
    "SpecGenerator",
    "Verdict",
    "evaluate",
    "generated_name",
    "spec_coverage_keys",
]
