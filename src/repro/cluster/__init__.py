"""Sharded multi-supervisor cluster layer (beyond the paper).

The paper's single supervisor is its admitted scalability bottleneck: every
``Subscribe`` / ``Unsubscribe`` / ``GetConfiguration`` of every topic lands on
one node.  This package scales the system out by running one BuildSR
supervisor per *shard* and assigning topics to shards with (bounded-loads)
consistent hashing:

``sharding``
    :class:`~repro.cluster.sharding.ConsistentHashRing` — topic → shard
    placement with stability under shard arrival/departure.
``sharded``
    :class:`~repro.cluster.sharded.ShardedPubSub` — the cluster facade,
    API-compatible with :class:`~repro.core.system.SupervisedPubSub`,
    including supervisor-crash rebalancing.

See ``benchmarks/bench_e11_sharded_scaling.py`` for the scaling experiment
(per-supervisor request load vs. shard count K).
"""

from repro.cluster.sharding import ConsistentHashRing
from repro.cluster.sharded import ShardedPubSub

__all__ = [
    "ConsistentHashRing",
    "ShardedPubSub",
]
