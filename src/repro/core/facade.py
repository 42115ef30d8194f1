"""Shared machinery of the pub-sub system facades.

Two facades expose the supervised publish-subscribe system to callers:

* :class:`repro.core.system.SupervisedPubSub` — the paper's system: one
  well-known supervisor serving every topic;
* :class:`repro.cluster.sharded.ShardedPubSub` — the cluster layer: topics
  sharded across K supervisors via consistent hashing.

Everything that does not depend on *which* supervisor owns a topic lives in
:class:`PubSubFacadeBase`: peer management, subscribe/unsubscribe/publish
routing, execution drivers (``run_rounds`` / ``run_until_legitimate`` / ...),
and the legitimacy, convergence and message-accounting inspection API the
experiments consume.  Subclasses provide :meth:`supervisor_of` (topic →
owning :class:`Supervisor`), :meth:`supervisor_node_ids` and
:meth:`_new_subscriber`, so every experiment and workload runs unchanged
against either facade.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

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


class PubSubFacadeBase:
    """Common base of the single-supervisor and sharded pub-sub facades."""

    def __init__(self, seed: int = 0, params: Optional[ProtocolParams] = None,
                 sim_config: Optional[SimulatorConfig] = None,
                 first_subscriber_id: int = 1) -> None:
        self.params = params or ProtocolParams()
        if sim_config is None:
            config = SimulatorConfig(seed=seed)
        else:
            # Defensive copy: the facade must never alias (let alone mutate) a
            # caller-supplied config — callers reuse one config across systems.
            config = replace(sim_config)
        self.sim = Simulator(config)
        self.subscribers: Dict[NodeRef, Subscriber] = {}
        self.registry = TopicRegistry([self.params.default_topic])
        self._next_id = itertools.count(first_subscriber_id)
        #: typed lifecycle hooks (see :mod:`repro.core.hooks`)
        self.hooks = HookRegistry()
        #: the :class:`~repro.api.spec.SystemSpec` this facade was built from,
        #: when it came through :func:`repro.api.builder.build_system`
        self.spec = None
        #: the :class:`~repro.telemetry.recorder.TelemetryRecorder` attached
        #: by the builder when the spec asks for telemetry; ``None`` otherwise
        self.telemetry = None

    # ------------------------------------------------------- subclass contract
    def supervisor_of(self, topic: str) -> Supervisor:
        """The supervisor node responsible for ``topic``."""
        raise NotImplementedError

    def supervisor_node_ids(self) -> List[NodeRef]:
        """Node ids of every supervisor in the system."""
        raise NotImplementedError

    def _new_subscriber(self, node_id: NodeRef) -> Subscriber:
        """Construct a subscriber wired to this facade's supervisor(s)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ peers
    def add_peer(self) -> Subscriber:
        """Create a peer that knows the supervisor(s) but subscribes to nothing."""
        node_id = next(self._next_id)
        subscriber = self._new_subscriber(node_id)
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
            if subscriber in self.supervisor_node_ids():
                raise ValueError(
                    f"node {subscriber} is a supervisor, not a subscriber; "
                    "supervisor crash/operations are not addressed through the "
                    "subscriber API")
            raise ValueError(f"unknown subscriber id {subscriber!r}")
        return resolved

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
        publication, or ``max_rounds`` timeout periods elapse.  On success the
        ``on_delivery`` hook fires with the topic, the expected keys and the
        rounds the drive took."""
        topic = topic or self.params.default_topic
        period = self.sim.config.timeout_period
        start = self.sim.now
        ok = self.sim.run_until(
            lambda: self.publications_converged(topic, expected_keys),
            check_every=check_every_rounds * period,
            max_time=max_rounds * period)
        if ok:
            self.hooks.emit_delivery(topic, expected_keys or (),
                                     (self.sim.now - start) / period)
        return ok

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
