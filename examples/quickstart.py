#!/usr/bin/env python3
"""Quickstart: build a supervised skip ring, publish, and watch it stabilize.

Run with::

    python examples/quickstart.py

The script builds a single-supervisor system through the unified API
(``build_system(SystemSpec(...))``), adds 16 subscribers, lets the self-stabilizing
BuildSR protocol converge to the ideal skip ring SR(16), publishes a message
and shows that flooding plus anti-entropy deliver it to every subscriber.
"""

from __future__ import annotations

from repro import SystemSpec, build_system
from repro.core.labels import r_float


def main() -> None:
    system = build_system(SystemSpec(seed=42))
    peers = [system.add_subscriber() for _ in range(16)]

    print("Running the BuildSR protocol until the overlay is legitimate ...")
    converged = system.run_until_legitimate(max_rounds=500)
    print(f"  legitimate state reached: {converged} "
          f"(simulated time {system.sim.now:.1f})")

    print("\nSubscriber labels and ring positions (compare with Figure 1):")
    for peer in peers:
        label = peer.label()
        print(f"  subscriber {peer.node_id:>3}: label={label:<6} r={r_float(label):.4f} "
              f"degree={len(peer.view(create=False).neighbor_refs())}")

    print("\nPublishing 'hello world' from one subscriber ...")
    publication = system.publish(peers[0], b"hello world")
    system.run_rounds(15)
    delivered = system.all_subscribers_have(publication.key)
    print(f"  delivered to all {len(peers)} subscribers: {delivered}")

    stats = system.message_stats()
    print("\nMessage totals by protocol action:")
    for action, count in sorted(stats.sent_by_action.items()):
        print(f"  {action:<20} {count}")
    print(f"\nSupervisor handled {system.supervisor_request_count()} requests in total "
          f"({system.supervisor.ops_handled} subscribe/unsubscribe operations).")


if __name__ == "__main__":
    main()
