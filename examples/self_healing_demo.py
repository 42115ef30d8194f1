#!/usr/bin/env python3
"""Self-stabilization from a deliberately corrupted initial state.

This demo wires 14 subscribers into a hostile initial configuration — wrong
and duplicated labels, partitioned neighbour chains, a corrupted supervisor
database and garbage in-flight messages — and then simply lets the protocol
run.  It prints convergence progress (which kinds of legitimacy condition —
``database-*``, ``label``, ``ring-*``, ``shortcut`` — still fail, and at how
many places) until the overlay is the legitimate skip ring, demonstrating
Theorem 8 end to end.

Run with::

    python examples/self_healing_demo.py
"""

from __future__ import annotations

from repro.workloads.initial_states import AdversarialConfig, build_adversarial_system
from repro.workloads.publications import scatter_publications


def _failed(report) -> str:
    if report.legitimate:
        return "none failed"
    return f"failed: {', '.join(sorted(report.failed()))} ({len(report.findings)} findings)"


def main() -> None:
    config = AdversarialConfig(
        n=14,
        seed=2024,
        database_mode="corrupted",
        components=3,
        fraction_unlabeled=0.3,
        fraction_random_labels=0.5,
        corrupted_messages=25,
    )
    system, subscribers = build_adversarial_system(config)
    keys = scatter_publications(system, subscribers, count=6, seed=1)

    print("Initial state:")
    report = system.legitimacy_report()
    database = sorted(kind for kind in report.failed() if kind.startswith("database-"))
    print(f"  supervisor database findings: {', '.join(database) or 'none'}")
    print(f"  {_failed(report)}")

    print("\nRunning the protocol ...")
    step = 10
    for rounds in range(step, 301, step):
        system.run_rounds(step)
        report = system.legitimacy_report()
        print(f"  after {rounds:>3} rounds: {_failed(report)}")
        if report.legitimate:
            break

    print(f"\nLegitimate skip ring reached: {system.is_legitimate()}")
    delivered = system.run_until_publications_converged(expected_keys=keys, max_rounds=600)
    print(f"Publications that pre-existed the corruption reached everyone: {delivered}")


if __name__ == "__main__":
    main()
