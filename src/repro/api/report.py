"""The one result object every driver produces.

:class:`RunReport` subsumes the two result types that grew independently —
the experiment harness's ``ExperimentResult`` (a table + claim checklist) and
the scenario engine's ``ScenarioReport`` (per-phase measurements +
invariants).  A report carries:

* a primary **table** (``headers`` + ``rows``) — what ``EXPERIMENTS.md`` prints;
* **claims**: description → pass/fail, the asserted reproduction surface;
* **message-stat snapshots**: labelled
  :meth:`~repro.sim.network.ChannelStats.to_summary_dict` captures;
* free-form **metadata** and the run's **wall time**;
* for scenario runs, the full embedded scenario dict (lossless — the
  canonical per-phase JSON is reachable from the unified report).

A report serializes through the artifact codec (:mod:`repro.artifact`), so
reports are byte-comparable across runs whenever their content is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.artifact import Artifact


@dataclass
class RunReport(Artifact, derived=("passed",), omit_none=("telemetry",)):
    """Unified result of one experiment, scenario or benchmark run."""

    name: str
    title: str = ""
    headers: List[str] = field(default_factory=list)
    rows: List[Sequence] = field(default_factory=list)
    claims: Dict[str, bool] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
    #: label -> ChannelStats summary dict (see ``record_message_stats``)
    message_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    wall_seconds: Optional[float] = None
    #: full ScenarioReport dict when this report wraps a scenario run
    scenario: Optional[Dict[str, object]] = None
    #: telemetry payload (histograms + spans; see
    #: :meth:`repro.telemetry.recorder.TelemetryRecorder.to_dict`) when the
    #: run's system was built with ``telemetry=True``.  ``None`` keeps the
    #: serialized report byte-identical to pre-telemetry artifacts.
    telemetry: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------ construction
    def add_row(self, *values: object) -> None:
        self.rows.append(tuple(values))

    def claim(self, description: str, holds: bool) -> None:
        self.claims[description] = bool(holds)

    def record_message_stats(self, label: str, system: Any) -> None:
        """Snapshot ``system``'s message statistics under ``label`` (accepts a
        facade or a :class:`~repro.sim.network.ChannelStats`)."""
        stats = system.message_stats() if hasattr(system, "message_stats") else system
        self.message_stats[label] = stats.to_summary_dict()

    # --------------------------------------------------------------- verdicts
    @property
    def passed(self) -> bool:
        """Whether every claim holds (vacuously true with no claims)."""
        return all(self.claims.values()) if self.claims else True

    @property
    def failed_claims(self) -> List[str]:
        return [c for c, ok in self.claims.items() if not ok]

    # ------------------------------------------------------------- converters
    @classmethod
    def from_scenario(cls, report: Any) -> "RunReport":
        """Wrap a :class:`~repro.scenarios.runner.ScenarioReport` losslessly.

        The primary table mirrors the CLI's per-phase rendering, the claims
        are the scenario's flattened invariants, and the full scenario dict
        (whose canonical JSON stays byte-identical per seed) is embedded
        under :attr:`scenario`.
        """
        run = cls(
            name=report.scenario,
            title=f"scenario {report.scenario!r} "
                  f"(facade={report.facade}, shards={report.shards}, "
                  f"n={report.subscribers_initial}, seed={report.seed})",
            headers=["phase", "disruptions", "relegit rounds", "pubs ok/issued",
                     "sent", "drops", "hotspot reqs", "verdict"],
            metadata={
                "facade": report.facade,
                "shards": report.shards,
                "seed": report.seed,
                "subscribers_initial": report.subscribers_initial,
                "topics": list(report.topics),
                "stabilize_rounds": report.stabilize_rounds,
            },
            scenario=report.to_dict(),
        )
        for phase in report.phases:
            drops = ", ".join(f"{r}={c}" for r, c in sorted(phase.drops.items()))
            run.add_row(
                phase.name, " ".join(phase.disruptions),
                phase.relegitimize_rounds,
                f"{phase.publications_surviving}/{phase.publications_issued}"
                if phase.delivery_checked else "-",
                phase.messages_sent, drops or "-",
                phase.supervisor_hotspot_requests,
                "PASS" if phase.passed else "FAIL")
        for description, holds in report.invariants().items():
            run.claim(description, holds)
        return run


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a simple monospace table (markdown-compatible)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    out: List[str] = [line(list(headers)),
                      "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
