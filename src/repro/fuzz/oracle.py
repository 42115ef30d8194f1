"""The failure oracle: what counts as a *finding* in a fuzz campaign.

Two failure classes:

* **invariant violations** — any scenario invariant the runner recorded as
  false (initial stabilization, relegitimacy, delivery, supervisor load);
* **pathological stabilization** — a phase relegitimized, but took longer
  than the oracle's round budget (the paper claims logarithmic
  stabilization; a quietly quadratic regression would otherwise never trip
  an invariant).

A verdict separates detailed ``reasons`` (phase-qualified, for humans and
artifacts) from the ``signature`` (sorted category tuple, phase-agnostic).
The shrinker matches candidates on the signature, so deleting unrelated
phases never disguises the failure being minimized.

``OracleSpec`` is a frozen config serialized by the artifact codec
(:mod:`repro.artifact`) inside the campaign's
:class:`~repro.fuzz.campaign.FuzzConfig`.  The campaign applies it in the
parent process to each scenario report a worker returns, so a test can
*deliberately weaken* a budget (e.g. ``max_relegitimize_rounds=0.1``) to
prove the fuzzer finds and shrinks a seeded bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.artifact import Artifact


@dataclass(frozen=True)
class OracleSpec(Artifact):
    """Failure thresholds applied to a finished scenario report.

    ``max_relegitimize_rounds`` / ``max_stabilize_rounds`` of ``None``
    disable the respective budget: only genuine invariant violations count.
    """

    max_relegitimize_rounds: Optional[float] = None
    max_stabilize_rounds: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("max_relegitimize_rounds", "max_stabilize_rounds"):
            value = getattr(self, attr)
            if value is not None and value < 0:
                raise ValueError(f"{attr} must be non-negative (or None)")


@dataclass(frozen=True)
class Verdict(Artifact):
    """One run's oracle outcome: detailed reasons + matching signature."""

    failed: bool
    reasons: Tuple[str, ...] = ()
    signature: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.failed, bool):
            raise ValueError(f"Verdict.failed must be a bool, got {self.failed!r}")


def evaluate(oracle: OracleSpec, scenario: Dict[str, Any]) -> Verdict:
    """Apply the oracle to a :meth:`ScenarioReport.to_dict` payload."""
    reasons: List[str] = []
    signature: set = set()

    if not scenario.get("stabilized", False):
        reasons.append("invariant:initial stabilization")
        signature.add("invariant:initial stabilization")
    elif (oracle.max_stabilize_rounds is not None
          and scenario.get("stabilize_rounds", 0.0)
          > oracle.max_stabilize_rounds):
        reasons.append(
            f"budget:initial stabilization took "
            f"{scenario['stabilize_rounds']:g} rounds "
            f"(budget {oracle.max_stabilize_rounds:g})")
        signature.add("budget:initial stabilization")

    for phase in scenario.get("phases", []):
        name = phase["name"]
        for invariant, holds in sorted(phase.get("invariants", {}).items()):
            if not holds:
                reasons.append(f"invariant:{invariant}@{name}")
                signature.add(f"invariant:{invariant}")
        if (oracle.max_relegitimize_rounds is not None
                and phase.get("relegitimized", False)
                and phase.get("relegitimize_rounds", 0.0)
                > oracle.max_relegitimize_rounds):
            reasons.append(
                f"budget:relegitimacy took {phase['relegitimize_rounds']:g} "
                f"rounds (budget {oracle.max_relegitimize_rounds:g})@{name}")
            signature.add("budget:relegitimacy")

    return Verdict(failed=bool(reasons), reasons=tuple(sorted(reasons)),
                   signature=tuple(sorted(signature)))
