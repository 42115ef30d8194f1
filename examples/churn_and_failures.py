#!/usr/bin/env python3
"""Churn and crash recovery: the self-* properties under membership change.

A chat-group style workload: peers keep joining and leaving, some crash
without warning, and messages are published throughout.  The overlay keeps
re-stabilizing and no publication is ever lost for the surviving subscribers
(Sections 3.3, 4.1 of the paper).  The whole disruption is one scenario
phase: the runner spreads the membership events and publications over the
window, then measures re-legitimization and delivery.

Run with::

    python examples/churn_and_failures.py
"""

from __future__ import annotations

from repro.scenarios import PhaseSpec, ScenarioRunner, ScenarioSpec


def main() -> None:
    # Membership churn over 60 rounds: 4 joins, 2 voluntary leaves and 2
    # unannounced crashes (victims are random live members when the event
    # fires), plus 8 publications from random live members.
    spec = ScenarioSpec(
        name="churn-and-failures",
        description="joins, leaves, crashes and publications in one window",
        subscribers=12,
        phases=(PhaseSpec(name="churn", rounds=60, joins=4, leaves=2, crashes=2,
                          publications=8),))
    report = ScenarioRunner(spec, seed=13).run()
    print(f"Initial overlay of {spec.subscribers} subscribers stable: "
          f"{report.stabilized} ({report.stabilize_rounds} rounds).")

    phase = report.phases[0]
    print(f"Ran a {spec.phases[0].rounds:g}-round window of {' '.join(phase.disruptions)} ...")
    print(f"  legitimate again: {phase.relegitimized} "
          f"({phase.relegitimize_rounds} rounds after the window), "
          f"surviving subscribers: {phase.live_members}")
    print(f"  {phase.publications_surviving} of {phase.publications_issued} publications "
          f"survived; delivered to every survivor: {phase.delivered}")
    print(f"\nSupervisor effort: {phase.supervisor_hotspot_requests} requests at the "
          f"busiest supervisor (bound {phase.supervisor_request_bound}).")
    print(f"All invariants hold: {report.passed}")


if __name__ == "__main__":
    main()
