#!/usr/bin/env python3
"""Churn and crash recovery: the self-* properties under membership change.

A chat-group style workload: peers keep joining and leaving, some crash
without warning, and messages are published throughout.  The overlay keeps
re-stabilizing and no publication is ever lost for the surviving subscribers
(Sections 3.3, 4.1 of the paper).

Run with::

    python examples/churn_and_failures.py
"""

from __future__ import annotations

from repro import SystemSpec, build_system
from repro.workloads.churn import ChurnEvent, ChurnSchedule, apply_churn
from repro.workloads.publications import publish_stream


def main() -> None:
    system = build_system(SystemSpec(seed=13))
    peers = [system.add_subscriber() for _ in range(12)]
    assert system.run_until_legitimate(max_rounds=500)
    print(f"Initial overlay stable with {len(system.members())} subscribers.")

    # Membership churn: 4 joins, 2 voluntary leaves, 2 unannounced crashes.
    # One crash targets a specific peer by its stable node id; the other
    # events pick random live members when they fire.
    schedule = ChurnSchedule()
    for t in (5, 15, 25, 35):
        schedule.add(ChurnEvent(time=float(t), kind="join"))
    for t in (10, 30):
        schedule.add(ChurnEvent(time=float(t), kind="leave"))
    schedule.add(ChurnEvent(time=20.0, kind="crash", target=peers[3].node_id))
    schedule.add(ChurnEvent(time=40.0, kind="crash"))
    apply_churn(system, schedule, seed=3)

    # A stream of publications spread over the same window.
    published = publish_stream(system, peers, count=8, seed=5, spacing_rounds=5.0)

    print("Running 60 rounds of churn + publications ...")
    system.run_rounds(60)

    print("Re-stabilizing after the last membership change ...")
    ok = system.run_until_legitimate(max_rounds=1000)
    survivors = system.members()
    print(f"  legitimate again: {ok}, surviving subscribers: {len(survivors)}")

    delivered = system.run_until_publications_converged(
        expected_keys=set(published), max_rounds=800)
    print(f"  all {len(published)} publications delivered to every survivor: {delivered}")

    supervisor = system.supervisor
    print(f"\nSupervisor effort: {supervisor.ops_handled} membership operations handled, "
          f"{supervisor.op_response_messages} messages sent for them "
          f"({supervisor.op_response_messages / max(supervisor.ops_handled, 1):.2f} per op).")


if __name__ == "__main__":
    main()
