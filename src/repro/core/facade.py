"""The supervised publish-subscribe system, as one facade.

:class:`SupervisedPubSub` wires the simulator, K supervisors and any number
of subscribers together, and exposes the operations a user of the system
cares about (subscribe, unsubscribe, publish, crash) together with the
state-inspection helpers the experiments need (legitimacy checks,
convergence driving, message accounting).

With ``shards=1`` (the default) it is the paper's system: one well-known
supervisor (node ``0``) serving every topic.  With ``shards=K`` it is the
cluster layer: supervisors ``0 .. K-1`` run the same BuildSR supervisor, and
every topic is assigned to exactly one of them with bounded-loads consistent
hashing (:mod:`repro.cluster.sharding`).  Each topic's BuildSR instance runs
against its owning shard exactly as it would against the single supervisor,
so all of the paper's per-topic guarantees (Theorems 5, 7, 8, 13, 17) carry
over shard-locally while the *aggregate* request load spreads across the
cluster.  :meth:`SupervisedPubSub.crash_supervisor` crashes a shard, moves its
topics to the survivors and prompts their members to re-register; the
self-stabilizing protocol then rebuilds each moved topic's skip ring.

Example
-------
>>> from repro import SupervisedPubSub
>>> system = SupervisedPubSub(seed=7)
>>> peers = [system.add_subscriber() for _ in range(8)]
>>> system.run_until_legitimate()
True
>>> pub = system.publish(peers[0], b"hello world")
>>> system.run_rounds(30)
>>> system.all_subscribers_have(pub.key)
True
>>> cluster = SupervisedPubSub(shards=4, seed=7)
>>> peers = [cluster.add_subscriber(f"topic-{i % 8}") for i in range(32)]
>>> cluster.run_until_legitimate()
True
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.sharding import ConsistentHashRing
from repro.core import messages as msg
from repro.core.config import (
    DEFAULT_CHECK_EVERY_ROUNDS,
    DEFAULT_MAX_ROUNDS,
    ProtocolParams,
)
from repro.core.hooks import HookRegistry
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor
from repro.pubsub.publications import Publication
from repro.pubsub.topics import TopicRegistry
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import NodeRef

#: The paper's well-known supervisor: node id of shard 0.
SUPERVISOR_ID: NodeRef = 0


class SupervisedPubSub:
    """K supervisors plus a dynamic set of subscribers on one simulator.

    Supervisors occupy node ids ``0 .. shards-1``; subscribers are numbered
    from ``shards`` upwards.  Topics are mapped to shards lazily, on first
    use, with bounded-loads consistent hashing, so the per-shard topic count
    stays within one of perfect balance no matter how few topics exist.
    """

    def __init__(self, seed: int = 0, params: Optional[ProtocolParams] = None,
                 sim_config: Optional[SimulatorConfig] = None,
                 shards: int = 1) -> None:
        if shards < 1:
            raise ValueError("a supervised system needs at least one supervisor")
        self.params = params or ProtocolParams()
        if sim_config is None:
            config = SimulatorConfig(seed=seed)
        else:
            # Defensive copy: the facade must never alias (let alone mutate) a
            # caller-supplied config — callers reuse one config across systems.
            config = replace(sim_config)
        self.sim = Simulator(config)
        self.ring = ConsistentHashRing()
        self.supervisors: Dict[NodeRef, Supervisor] = {}
        for shard_id in range(shards):
            supervisor = Supervisor(shard_id, params=self.params)
            self.sim.add_node(supervisor)
            self.supervisors[shard_id] = supervisor
            self.ring.add_shard(shard_id)
        self._topic_shard: Dict[str, NodeRef] = {}
        self._shard_topic_load: Dict[NodeRef, int] = {s: 0 for s in self.supervisors}
        self.subscribers: Dict[NodeRef, Subscriber] = {}
        self.registry = TopicRegistry([self.params.default_topic])
        self._next_id = itertools.count(shards)
        #: typed lifecycle hooks (see :mod:`repro.core.hooks`)
        self.hooks = HookRegistry()
        #: the :class:`~repro.api.spec.SystemSpec` this facade was built from,
        #: when it came through :func:`repro.api.builder.build_system`
        self.spec = None
        #: the :class:`~repro.telemetry.recorder.TelemetryRecorder` attached
        #: by ``build_system`` when the spec asks for telemetry; ``None`` otherwise
        self.telemetry = None

    # ---------------------------------------------------------------- sharding
    def shard_of(self, topic: str, pin: bool = True) -> NodeRef:
        """The shard (supervisor node id) owning ``topic``.

        The first *pinning* lookup assigns the topic via bounded-loads
        consistent hashing; later lookups are a dict hit.  This method is
        every subscriber's ``supervisor_for``, so protocol-level requests
        follow rebalancing automatically.

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

    def live_shard_ids(self) -> List[NodeRef]:
        return [sid for sid, sup in sorted(self.supervisors.items()) if not sup.crashed]

    def supervisor_of(self, topic: str) -> Supervisor:
        """The supervisor node responsible for ``topic``."""
        # Inspection must not pin: topics are assigned when a subscriber first
        # routes a request to them (through ``shard_of``), not when queried.
        return self.supervisors[self.shard_of(topic, pin=False)]

    @property
    def supervisor(self) -> Supervisor:
        """The supervisor of the default topic (the only one when K = 1)."""
        return self.supervisor_of(self.params.default_topic)

    def supervisor_node_ids(self) -> List[NodeRef]:
        """Node ids of every supervisor in the system."""
        return sorted(self.supervisors)

    # ------------------------------------------------------------------ peers
    def add_peer(self) -> Subscriber:
        """Create a peer that knows the supervisors but subscribes to nothing."""
        node_id = next(self._next_id)
        subscriber = Subscriber(node_id, self.shard_of, params=self.params)
        self.sim.add_node(subscriber)
        self.subscribers[node_id] = subscriber
        return subscriber

    def add_subscriber(self, topic: Optional[str] = None,
                       topics: Optional[Iterable[str]] = None) -> Subscriber:
        """Create a peer and subscribe it to ``topic`` (or each of ``topics``)."""
        subscriber = self.add_peer()
        wanted = list(topics) if topics is not None else [topic or self.params.default_topic]
        for t in wanted:
            self.subscribe(subscriber, t)
        return subscriber

    def subscribe(self, subscriber: Subscriber | NodeRef, topic: Optional[str] = None) -> None:
        subscriber = self._resolve(subscriber)
        topic = topic or self.params.default_topic
        subscriber.subscribe(topic)
        self.registry.subscribe(subscriber.node_id, topic)
        self.hooks.emit_subscribe(subscriber.node_id, topic)

    def unsubscribe(self, subscriber: Subscriber | NodeRef, topic: Optional[str] = None) -> None:
        subscriber = self._resolve(subscriber)
        topic = topic or self.params.default_topic
        subscriber.unsubscribe(topic)
        self.registry.unsubscribe(subscriber.node_id, topic)

    def crash(self, subscriber: Subscriber | NodeRef, at: Optional[float] = None) -> None:
        """Crash a subscriber without warning (Section 3.3)."""
        subscriber = self._resolve(subscriber)
        self.sim.crash_node(subscriber.node_id, at=at)
        self.registry.remove_node(subscriber.node_id)

    def publish(self, subscriber: Subscriber | NodeRef, payload: bytes | str,
                topic: Optional[str] = None) -> Publication:
        subscriber = self._resolve(subscriber)
        return subscriber.publish(payload, topic or self.params.default_topic)

    def _resolve(self, subscriber: Subscriber | NodeRef) -> Subscriber:
        if isinstance(subscriber, Subscriber):
            return subscriber
        resolved = self.subscribers.get(subscriber)
        if resolved is None:
            if subscriber in self.supervisors:
                raise ValueError(
                    f"node {subscriber} is a supervisor, not a subscriber; "
                    "supervisor crash/operations are not addressed through the "
                    "subscriber API")
            raise ValueError(f"unknown subscriber id {subscriber!r}")
        return resolved

    # ---------------------------------------------------------- shard failures
    def crash_supervisor(self, shard_id: NodeRef) -> List[str]:
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
        for topic in orphaned:
            new_shard = self.ring.assign_balanced(topic, self._shard_topic_load)
            self._topic_shard[topic] = new_shard
            self._shard_topic_load[new_shard] += 1
            self._reannounce_members(topic)
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

    # --------------------------------------------------------------- execution
    def run_rounds(self, rounds: int) -> None:
        """Advance simulation time by ``rounds`` timeout periods."""
        self.sim.run_rounds(rounds)

    def run_for(self, duration: float) -> None:
        self.sim.run_for(duration)

    def run_until_legitimate(self, topic: Optional[str] = None,
                             max_rounds: int = DEFAULT_MAX_ROUNDS,
                             check_every_rounds: int = DEFAULT_CHECK_EVERY_ROUNDS,
                             ) -> bool:
        """Run until the overlay for ``topic`` (default: every registered topic)
        is in a legitimate state, or ``max_rounds`` timeout periods elapse.
        On success the ``on_relegitimacy`` hook fires with the topics checked
        and the rounds the drive took."""
        topics = [topic] if topic is not None else self.registry.topics()
        period = self.sim.config.timeout_period
        start = self.sim.now

        def predicate() -> bool:
            return all(self.is_legitimate(t) for t in topics)

        ok = self.sim.run_until(predicate,
                                check_every=check_every_rounds * period,
                                max_time=max_rounds * period)
        if ok:
            self.hooks.emit_relegitimacy(topics, (self.sim.now - start) / period)
        return ok

    def run_until_publications_converged(self, topic: Optional[str] = None,
                                         expected_keys: Optional[Set[str]] = None,
                                         max_rounds: int = DEFAULT_MAX_ROUNDS,
                                         check_every_rounds: int = DEFAULT_CHECK_EVERY_ROUNDS,
                                         ) -> bool:
        """Run until every live member of ``topic`` stores every expected
        publication, or ``max_rounds`` timeout periods elapse."""
        topic = topic or self.params.default_topic
        period = self.sim.config.timeout_period
        return self.sim.run_until(
            lambda: self.publications_converged(topic, expected_keys),
            check_every=check_every_rounds * period,
            max_time=max_rounds * period)

    # ------------------------------------------------------------- inspection
    def members(self, topic: Optional[str] = None) -> List[NodeRef]:
        """Live intended members of ``topic`` (the ground truth the converged
        overlay must reflect)."""
        topic = topic or self.params.default_topic
        return sorted(
            node_id for node_id in self.registry.members(topic)
            if node_id in self.subscribers and not self.subscribers[node_id].crashed
        )

    def is_legitimate(self, topic: Optional[str] = None) -> bool:
        return self.legitimacy_report(topic).legitimate

    def legitimacy_report(self, topic: Optional[str] = None):
        # Per-call lookup (here and below): bench/trace.py patches the module attribute.
        from repro.analysis.convergence import ring_legitimate
        topic = topic or self.params.default_topic
        return ring_legitimate(self.supervisor_of(topic), self.subscribers,
                               self.members(topic), topic)

    def publications_converged(self, topic: Optional[str] = None,
                               expected_keys: Optional[Set[str]] = None) -> bool:
        from repro.analysis.convergence import publications_converged
        topic = topic or self.params.default_topic
        return publications_converged(self.subscribers, self.members(topic), topic,
                                      expected_keys)

    def all_subscribers_have(self, key: str, topic: Optional[str] = None) -> bool:
        topic = topic or self.params.default_topic
        members = self.members(topic)
        return bool(members) and all(
            self.subscribers[m].has_publication(key, topic) for m in members)

    def explicit_edges(self, topic: Optional[str] = None) -> Set[Tuple[int, int]]:
        """Current undirected explicit edge set among live members of ``topic``."""
        topic = topic or self.params.default_topic
        edges: Set[Tuple[int, int]] = set()
        members = set(self.members(topic))
        for node_id in members:
            view = self.subscribers[node_id].view(topic, create=False)
            if view is None:
                continue
            for ref in view.neighbor_refs():
                if ref in members:
                    edges.add((node_id, ref) if node_id <= ref else (ref, node_id))
        return edges

    # ---------------------------------------------------------------- metrics
    def supervisor_request_counts(self) -> Dict[NodeRef, int]:
        """Per-supervisor count of received request messages
        (Subscribe/Unsubscribe/GetConfiguration) — the load Theorem 5 bounds."""
        stats = self.sim.network.stats
        return {
            node_id: sum(stats.received_by(node_id, action)
                         for action in msg.SUPERVISOR_REQUEST_ACTIONS)
            for node_id in self.supervisor_node_ids()
        }

    def supervisor_request_count(self) -> int:
        """Total request messages received across all supervisors."""
        return sum(self.supervisor_request_counts().values())

    def message_stats(self):
        return self.sim.network.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SupervisedPubSub(shards={len(self.supervisors)}, "
                f"live={len(self.live_shard_ids())}, n={len(self.subscribers)}, "
                f"topics={self.registry.topics()}, t={self.sim.now:.1f})")


# Read only by bench/trace.py, which patches the facade under this name.
PubSubFacadeBase = SupervisedPubSub
