"""Publication workload generators.

Two modes matter for the paper's claims:

* **scattered pre-existing publications** (Theorem 17): publications already
  sit in arbitrary subscribers' Patricia tries when the system starts; the
  anti-entropy protocol must spread them to everybody.
* **live publication streams** (Section 4.3): subscribers publish during the
  run; flooding should deliver each publication within the topology diameter.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

from repro.core.facade import SupervisedPubSub
from repro.core.subscriber import Subscriber
from repro.pubsub.publications import Publication


def generate_payloads(count: int, seed: int = 0, prefix: str = "msg") -> List[bytes]:
    """Deterministic distinct payloads."""
    rng = random.Random(seed)
    return [f"{prefix}-{i}-{rng.randrange(1_000_000)}".encode("ascii") for i in range(count)]


def scatter_publications(system: SupervisedPubSub, subscribers: Sequence[Subscriber],
                         count: int, seed: int = 0,
                         topic: Optional[str] = None) -> Set[str]:
    """Insert ``count`` publications directly into randomly chosen subscribers'
    tries (no flooding, no protocol messages) and return their keys.

    This reproduces the initial condition of Theorem 17: publications exist at
    arbitrary subscribers and must eventually reach everyone via CheckTrie.
    """
    topic = topic or system.params.default_topic
    rng = random.Random(seed)
    keys: Set[str] = set()
    payloads = generate_payloads(count, seed=seed, prefix="scatter")
    for payload in payloads:
        owner = rng.choice(list(subscribers))
        publication = Publication.create(owner.node_id, payload,
                                         key_bits=system.params.publication_key_bits)
        view = owner.view(topic, subscribed=True)
        assert view is not None
        view.trie.insert(publication)
        keys.add(publication.key)
    return keys


def publish_stream(system: SupervisedPubSub, subscribers: Sequence[Subscriber],
                   count: int, seed: int = 0, topic: Optional[str] = None,
                   spacing_rounds: float = 1.0) -> Dict[str, int]:
    """Schedule ``count`` publish operations spread over the run.

    Returns a dict mapping publication key -> publisher node id, filled in as
    the scheduled callbacks fire (so inspect it only after running the
    simulator past the last publish time).
    """
    topic = topic or system.params.default_topic
    rng = random.Random(seed)
    payloads = generate_payloads(count, seed=seed, prefix="stream")
    published: Dict[str, int] = {}
    period = system.sim.config.timeout_period

    def make_callback(payload: bytes):
        def callback() -> None:
            # Publish only from peers that are currently live members of the
            # topic: a departed peer has no overlay connections left, so its
            # "publication" could never reach anybody.
            candidates = []
            for peer in subscribers:
                if peer.crashed:
                    continue
                view = peer.view(topic, create=False)
                if view is not None and view.subscribed and not view.pending_unsubscribe:
                    candidates.append(peer)
            if not candidates:
                return
            publisher = rng.choice(candidates)
            publication = publisher.publish(payload, topic)
            published[publication.key] = publisher.node_id
        return callback

    for i, payload in enumerate(payloads):
        at = system.sim.now + (i + 1) * spacing_rounds * period
        system.sim.call_at(at, make_callback(payload))
    return published
