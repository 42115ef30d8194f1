"""Adversarial scenario fuzzer with auto-shrink.

The scenario library (7 hand-written scenarios) proves the paper's
self-stabilization claims against the faults a human thought of; this
package is the machine that imagines the rest.  Three pieces:

* **Generation** (:mod:`repro.fuzz.generator`) — seeded, valid-by-
  construction fresh draws over the full
  :class:`~repro.scenarios.spec.ScenarioSpec` fault space: loss ×
  duplication × delay spikes × named partitions/heals × churn storms ×
  crash waves × shard counts.
* **Oracle + shrink** (:mod:`repro.fuzz.oracle`, :mod:`repro.fuzz.shrink`)
  — invariant violations and pathological stabilization become findings; a
  delta-debugging shrinker minimizes phases → events → magnitudes while
  re-checking the failure signature each step, and emits a corpus-ready
  JSON artifact (``tests/corpus/`` replays them as regressions).
* **Campaign** (:mod:`repro.fuzz.campaign`) — the budgeted loop: every
  case is the scenario task the ``scenario`` and ``sweep`` verbs run,
  fanned out through the **fault-tolerant** :mod:`repro.exec` layer (a
  raising case becomes a ``crash`` record, not an aborted campaign) on the
  worker processes of a stdlib pool, opened per run; the oracle judges each
  scenario report in the parent, so reports are byte-reproducible at any
  ``--jobs`` value.

CLI: ``python -m repro fuzz``.  The full
design — shrink algorithm, corpus layout, triage workflow — is documented
in FUZZING.md.
"""

from repro.fuzz.campaign import (
    FuzzCampaign,
    FuzzConfig,
    FuzzFinding,
    FuzzReport,
)
from repro.fuzz.generator import GeneratorLimits, SpecGenerator, generated_name
from repro.fuzz.oracle import OracleSpec, Verdict, evaluate
from repro.fuzz.shrink import Shrinker, ShrinkOutcome

__all__ = [
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
]
