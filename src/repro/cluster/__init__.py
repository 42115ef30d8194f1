"""Sharded multi-supervisor cluster layer (beyond the paper).

The paper's single supervisor is its admitted scalability bottleneck: every
``Subscribe`` / ``Unsubscribe`` / ``GetConfiguration`` of every topic lands on
one node.  :class:`~repro.core.facade.SupervisedPubSub` with ``shards=K``
scales the system out by running one BuildSR supervisor per *shard*; this
package holds the placement it uses:

``sharding``
    :class:`~repro.cluster.sharding.ConsistentHashRing` — topic → shard
    placement with stability under shard arrival/departure (which a
    supervisor crash relies on) and bounded-loads assignment.

See E11 (:func:`~repro.experiments.experiments.e11_sharded_scaling`, in
``EXPERIMENTS.md``) for the scaling experiment (per-supervisor request load
vs. shard count K).
"""

from repro.cluster.sharding import ConsistentHashRing

__all__ = [
    "ConsistentHashRing",
]
