#!/usr/bin/env python3
"""A topic-based news service (the paper's motivating application).

Peers subscribe to a subset of the topics {politics, sports, tech}; publishers
push stories into their topics; every subscriber of a topic ends up with every
story of that topic and with none of the others.  One skip ring is maintained
per topic (Section 4), so the supervisor's per-topic state stays tiny.

Run with::

    python examples/news_service.py
"""

from __future__ import annotations

import random

from repro import SystemSpec, build_system

TOPICS = ["politics", "sports", "tech"]
STORIES = {
    "politics": ["election results", "new trade agreement", "budget vote"],
    "sports": ["cup final tonight", "transfer rumours", "marathon record"],
    "tech": ["chip shortage easing", "new overlay protocol published"],
}


def main() -> None:
    rng = random.Random(7)
    system = build_system(SystemSpec(seed=7))

    # 18 peers, each subscribing to one or two topics.
    peers = []
    for _ in range(18):
        wanted = rng.sample(TOPICS, k=rng.choice([1, 1, 2]))
        peers.append((system.add_subscriber(topics=wanted), wanted))

    print("Stabilizing one skip ring per topic ...")
    assert system.run_until_legitimate(max_rounds=800)
    for topic in TOPICS:
        print(f"  {topic:<9} {len(system.members(topic))} subscribers, legitimate="
              f"{system.is_legitimate(topic)}")

    print("\nPublishing stories ...")
    published = {topic: [] for topic in TOPICS}
    for topic, stories in STORIES.items():
        members = [p for p, wanted in peers if topic in wanted]
        for story in stories:
            publisher = rng.choice(members)
            pub = system.publish(publisher, story.encode(), topic=topic)
            published[topic].append(pub.key)
    system.run_rounds(40)

    print("\nDelivery check (every subscriber has exactly its topics' stories):")
    all_ok = True
    for peer, wanted in peers:
        for topic in TOPICS:
            stored = {p.key for p in peer.publications(topic)}
            expected = set(published[topic]) if topic in wanted else set()
            ok = stored == expected
            all_ok &= ok
            if not ok:
                print(f"  MISMATCH subscriber {peer.node_id} topic {topic}: "
                      f"{len(stored)} stored vs {len(expected)} expected")
    print(f"  all subscribers consistent: {all_ok}")

    print(f"\nSupervisor load: {system.supervisor_request_count()} requests total "
          f"across {len(TOPICS)} topics — independent of the number of stories.")


if __name__ == "__main__":
    main()
