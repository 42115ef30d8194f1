"""Determinism & invariant static analysis for the repro tree.

Every claim this reproduction makes — byte-identical golden reports,
seed-stable RNG draw order, jobs-1-vs-N campaign parity, order-invariant
telemetry merges — rests on coding disciplines that runtime golden tests can
only catch *after* the fact:

* no ambient randomness or wall-clock reads on report paths,
* sorted iteration before anything is serialized,
* ``__slots__`` on hot-path classes (and no stray attribute writes),
* randomness only through seeded :class:`random.Random` streams
  (:func:`repro.sim.rng.derive_rng`),
* hook callbacks matching the typed :class:`~repro.core.hooks.HookRegistry`
  signatures,
* every :class:`~repro.api.spec.SystemSpec` / ``SimulatorConfig`` field
  serialized, validated and reconciled.

:mod:`repro.check` enforces those disciplines at review time with an
AST-based rule engine (``repro-check`` / ``python -m repro.check``).  Rules
live in :mod:`repro.check.rules`; findings can be suppressed per line with
``# repro: allow[rule-id]`` pragmas or grandfathered in a committed baseline
file (:mod:`repro.check.baseline`).  The CLI exits non-zero whenever an
unsuppressed, non-baselined finding survives, so CI can gate on it.
"""

from repro.check.baseline import Baseline
from repro.check.engine import CheckEngine, CheckResult
from repro.check.findings import Finding
from repro.check.rules import available_rules, default_rules

__all__ = [
    "Baseline",
    "CheckEngine",
    "CheckResult",
    "Finding",
    "available_rules",
    "default_rules",
]
