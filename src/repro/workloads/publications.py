"""Publication workload generators.

**Scattered pre-existing publications** (Theorem 17): publications already
sit in arbitrary subscribers' Patricia tries when the system starts; the
anti-entropy protocol must spread them to everybody.  Live publications
issued during a run (Section 4.3) are a scenario phase's ``publications``
count (:class:`~repro.scenarios.spec.PhaseSpec`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set

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

