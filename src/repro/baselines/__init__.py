"""Reference systems the paper compares the supervised skip ring against.

* :mod:`repro.baselines.chord` — Chord-style ring with finger tables
  (randomised, hash-based node placement).
* :mod:`repro.baselines.skipgraph` — skip graph with random membership vectors.
* :mod:`repro.baselines.broker` — classic centralized broker publish-subscribe
  (the client-server alternative of the introduction).

The overlay baselines are *static topology* constructions: the paper's
comparison claims (degree, diameter, congestion, placement balance) are
structural, so no self-stabilizing protocol is needed for them.
"""

from repro.baselines.chord import ChordTopology
from repro.baselines.skipgraph import SkipGraphTopology
from repro.baselines.broker import BrokerPubSub, BrokerLoadModel

__all__ = [
    "ChordTopology",
    "SkipGraphTopology",
    "BrokerPubSub",
    "BrokerLoadModel",
]
