"""The sharded multi-supervisor cluster facade.

The paper's system has one well-known supervisor that serves every
``Subscribe`` / ``Unsubscribe`` / ``GetConfiguration`` request — its admitted
scalability bottleneck.  :class:`ShardedPubSub` removes it by running **K
supervisors on one simulator** and assigning every topic to exactly one of
them with consistent hashing (:mod:`repro.cluster.sharding`).  Each topic's
BuildSR instance runs against its owning shard exactly as it would against
the single supervisor, so all of the paper's per-topic guarantees (Theorems
5, 7, 8, 13, 17) carry over shard-locally while the *aggregate* request load
spreads across the cluster.

The facade exposes the same API as
:class:`~repro.core.system.SupervisedPubSub` (both derive from
:class:`~repro.core.facade.PubSubFacadeBase`), so experiments and workloads
run unchanged against either.  Additionally it supports **shard failure**:
:meth:`crash_supervisor` crashes a supervisor node, removes it from the hash
ring, reassigns its topics to the surviving shards and prompts the affected
subscribers to re-register — the self-stabilizing protocol then rebuilds each
moved topic's skip ring under its new supervisor.

Example
-------
>>> from repro.cluster import ShardedPubSub
>>> cluster = ShardedPubSub(shards=4, seed=7)
>>> peers = [cluster.add_subscriber(f"topic-{i % 8}") for i in range(32)]
>>> cluster.run_until_legitimate()
True
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.sharding import ConsistentHashRing
from repro.core import messages as msg
from repro.core.config import ProtocolParams
from repro.core.facade import PubSubFacadeBase
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor
from repro.sim.engine import SimulatorConfig
from repro.sim.node import NodeRef


class ShardedPubSub(PubSubFacadeBase):
    """K supervisors plus a dynamic set of subscribers on one simulator.

    Supervisors occupy node ids ``0 .. shards-1``; subscribers are numbered
    from ``shards`` upwards.  Topics are mapped to shards lazily, on first
    use, with bounded-loads consistent hashing, so the per-shard topic count
    stays within one of perfect balance no matter how few topics exist.
    """

    def __init__(self, shards: int = 4, seed: int = 0,
                 params: Optional[ProtocolParams] = None,
                 sim_config: Optional[SimulatorConfig] = None,
                 virtual_nodes: int = 64) -> None:
        if shards < 1:
            raise ValueError("a sharded system needs at least one supervisor")
        super().__init__(seed=seed, params=params, sim_config=sim_config,
                         first_subscriber_id=shards)
        self.ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
        self.supervisors: Dict[NodeRef, Supervisor] = {}
        for shard_id in range(shards):
            supervisor = Supervisor(shard_id, params=self.params)
            self.sim.add_node(supervisor)
            self.supervisors[shard_id] = supervisor
            self.ring.add_shard(shard_id)
        self._topic_shard: Dict[str, NodeRef] = {}
        self._shard_topic_load: Dict[NodeRef, int] = {s: 0 for s in self.supervisors}

    # ---------------------------------------------------------------- sharding
    def shard_of(self, topic: str, pin: bool = True) -> NodeRef:
        """The shard (supervisor node id) owning ``topic``.

        The first *pinning* lookup assigns the topic via bounded-loads
        consistent hashing; later lookups are a dict hit.  This method is
        handed to every subscriber as its ``supervisor_resolver``, so
        protocol-level requests follow rebalancing automatically.

        ``pin=False`` answers "which shard *would* own this topic?" without
        recording the assignment — used by read-only inspection so that e.g.
        a legitimacy query for an unknown topic does not consume a
        bounded-loads capacity slot.
        """
        shard = self._topic_shard.get(topic)
        if shard is None:
            shard = self.ring.assign_balanced(topic, self._shard_topic_load)
            if pin:
                self._topic_shard[topic] = shard
                self._shard_topic_load[shard] += 1
        return shard

    def topic_assignment(self) -> Dict[str, NodeRef]:
        """Topic -> owning shard for every topic seen so far."""
        return dict(self._topic_shard)

    def live_shard_ids(self) -> List[NodeRef]:
        return [sid for sid, sup in sorted(self.supervisors.items()) if not sup.crashed]

    # ----------------------------------------------------- facade base contract
    def supervisor_of(self, topic: str) -> Supervisor:
        # Inspection must not pin: topics are assigned when a subscriber first
        # routes a request to them (via the resolver), not when queried.
        return self.supervisors[self.shard_of(topic, pin=False)]

    def supervisor_node_ids(self) -> List[NodeRef]:
        return sorted(self.supervisors)

    def _new_subscriber(self, node_id: NodeRef) -> Subscriber:
        return Subscriber(node_id, supervisor_id=0, params=self.params,
                          supervisor_resolver=self.shard_of)

    # ---------------------------------------------------------- shard failures
    def crash_supervisor(self, shard_id: NodeRef, rebalance: bool = True) -> List[str]:
        """Crash supervisor ``shard_id`` and rebalance its topics.

        The shard's virtual nodes leave the hash ring, every topic it owned is
        reassigned to a surviving shard (bounded-loads, so the extra topics
        spread evenly), and each affected subscriber is prompted to re-send
        ``Subscribe`` to the new owner.  The moved topics' overlays then
        reconverge through the ordinary self-stabilizing protocol; topics on
        surviving shards are untouched.  Returns the list of moved topics.
        """
        supervisor = self.supervisors.get(shard_id)
        if supervisor is None:
            raise ValueError(f"unknown supervisor shard id {shard_id!r}")
        if supervisor.crashed:
            raise ValueError(f"supervisor {shard_id} has already crashed")
        if len(self.live_shard_ids()) <= 1:
            raise ValueError("cannot crash the last live supervisor")
        self.sim.crash_node(shard_id)
        self.ring.remove_shard(shard_id)
        orphaned = sorted(t for t, s in self._topic_shard.items() if s == shard_id)
        self._shard_topic_load.pop(shard_id, None)
        if rebalance:
            for topic in orphaned:
                new_shard = self.ring.assign_balanced(topic, self._shard_topic_load)
                self._topic_shard[topic] = new_shard
                self._shard_topic_load[new_shard] += 1
                self._reannounce_members(topic)
        else:
            for topic in orphaned:
                del self._topic_shard[topic]
        self.hooks.emit_supervisor_crash(shard_id, orphaned)
        return orphaned

    def _reannounce_members(self, topic: str) -> None:
        """Prompt every intended member of ``topic`` to register with the
        topic's (new) supervisor on the protocol level.

        Without this nudge recovery still happens — subscribers periodically
        request their configuration (Section 3.2.1) and the new supervisor
        integrates unknown requesters — but only at the request probability
        ``1/(2^k k²)``, which is deliberately tiny in a stable system.
        """
        for node_id in self.registry.members(topic):
            subscriber = self.subscribers.get(node_id)
            if subscriber is None or subscriber.crashed:
                continue
            view = subscriber.view(topic, create=False)
            if view is not None and view.subscribed:
                view.send_supervisor(msg.SUBSCRIBE, node=node_id)

    # ---------------------------------------------------------------- metrics
    def shard_topic_counts(self) -> Dict[NodeRef, int]:
        """Live shard id -> number of topics currently assigned to it."""
        return {sid: self._shard_topic_load.get(sid, 0) for sid in self.live_shard_ids()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedPubSub(shards={len(self.supervisors)}, "
                f"live={len(self.live_shard_ids())}, n={len(self.subscribers)}, "
                f"topics={len(self._topic_shard)}, t={self.sim.now:.1f})")
