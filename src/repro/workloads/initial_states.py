"""Adversarial initial-state generators (Theorem 8's premises).

Self-stabilization must hold from *any* initial state in which the explicit
edges (plus the always-present star to the supervisor) form a weakly connected
graph.  These generators build a :class:`~repro.core.facade.SupervisedPubSub`
whose subscribers are wired up arbitrarily *without* running the protocol:

* labels may be wrong, duplicated, missing or absurdly long,
* neighbour pointers may point to the wrong nodes or to no node at all while
  still keeping the component weakly connected (or intentionally partitioned),
* shortcut sets may contain garbage entries,
* the supervisor's database may be empty, partially filled or corrupted in all
  four ways listed in Section 3.1,
* channels may contain corrupted in-flight messages.

The experiments then run the protocol and measure the time to reach a
legitimate state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import ProtocolParams
from repro.core.labels import label_of
from repro.core.subscriber import Neighbor, Subscriber
from repro.core.facade import SupervisedPubSub
from repro.core import messages as msg
from repro.sim.engine import SimulatorConfig


@dataclass
class AdversarialConfig:
    """Knobs controlling how hostile the generated initial state is."""

    n: int = 16
    seed: int = 0
    #: fraction of subscribers starting without any label
    fraction_unlabeled: float = 0.25
    #: fraction of labels drawn at random (possibly duplicated / too long)
    fraction_random_labels: float = 0.5
    #: how to initialise the supervisor database: "empty", "partial",
    #: "corrupted" or "correct"
    database_mode: str = "empty"
    #: number of weakly connected components to split the subscribers into
    components: int = 1
    #: number of corrupted in-flight messages to inject
    corrupted_messages: int = 10
    #: maximum length of random (corrupted) labels
    max_random_label_bits: int = 10

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.components < 1 or self.components > self.n:
            raise ValueError("components must be in [1, n]")
        if self.database_mode not in {"empty", "partial", "corrupted", "correct"}:
            raise ValueError(f"unknown database_mode {self.database_mode!r}")


def _random_label(rng: random.Random, max_bits: int) -> str:
    length = rng.randint(1, max_bits)
    bits = "".join(rng.choice("01") for _ in range(length - 1))
    return bits + "1" if length > 1 else rng.choice(("0", "1"))


def scramble_topic_views(system: SupervisedPubSub, subscribers: List[Subscriber],
                         config: AdversarialConfig, topic: Optional[str] = None) -> None:
    """Assign arbitrary labels/neighbours/shortcuts to every subscriber.

    The subscribers are split into ``config.components`` groups; within each
    group the left/right pointers form a random chain (so each group is weakly
    connected), and pointers never cross groups.
    """
    topic = topic or system.params.default_topic
    rng = random.Random(config.seed * 7919 + 13)
    ids = [s.node_id for s in subscribers]
    rng.shuffle(ids)
    groups: List[List[int]] = [[] for _ in range(config.components)]
    for position, node_id in enumerate(ids):
        groups[position % config.components].append(node_id)

    by_id: Dict[int, Subscriber] = {s.node_id: s for s in subscribers}
    label_by_id: Dict[int, Optional[str]] = {}
    remaining_correct = [label_of(i) for i in range(len(subscribers))]
    rng.shuffle(remaining_correct)
    for node_id in ids:
        roll = rng.random()
        if roll < config.fraction_unlabeled:
            label_by_id[node_id] = None
        elif roll < config.fraction_unlabeled + config.fraction_random_labels:
            label_by_id[node_id] = _random_label(rng, config.max_random_label_bits)
        else:
            label_by_id[node_id] = remaining_correct.pop() if remaining_correct else \
                _random_label(rng, config.max_random_label_bits)

    for group in groups:
        for position, node_id in enumerate(group):
            subscriber = by_id[node_id]
            view = subscriber.view(topic, subscribed=True)
            assert view is not None
            view.subscribed = True
            view.label = label_by_id[node_id]
            view.left = view.right = view.ring = None
            view.shortcuts = {}
            # Chain pointers keep each group weakly connected regardless of
            # how wrong the stored labels are.
            if position > 0:
                left_id = group[position - 1]
                view.left = Neighbor(label_by_id[left_id] or "0", left_id)
            if position + 1 < len(group):
                right_id = group[position + 1]
                view.right = Neighbor(label_by_id[right_id] or "1", right_id)
            # Sprinkle bogus shortcut entries.
            if rng.random() < 0.5 and len(group) > 2:
                target = rng.choice(group)
                if target != node_id:
                    view.shortcuts[_random_label(rng, config.max_random_label_bits)] = target
            if rng.random() < 0.3:
                view.shortcuts[_random_label(rng, config.max_random_label_bits)] = None


def corrupt_supervisor_database(system: SupervisedPubSub, subscribers: List[Subscriber],
                                config: AdversarialConfig,
                                topic: Optional[str] = None) -> None:
    """Initialise the supervisor database according to ``config.database_mode``."""
    topic = topic or system.params.default_topic
    rng = random.Random(config.seed * 104729 + 7)
    db = system.supervisor_of(topic).database(topic)
    db.clear()
    ids = [s.node_id for s in subscribers]
    if config.database_mode == "empty":
        return
    if config.database_mode == "correct":
        for index, node_id in enumerate(ids):
            db.put(label_of(index), node_id)
        return
    if config.database_mode == "partial":
        sample = rng.sample(ids, max(1, len(ids) // 2))
        for index, node_id in enumerate(sample):
            db.put(label_of(index), node_id)
        return
    # corrupted: exercise all four corruption conditions of Section 3.1
    sample = rng.sample(ids, max(2, len(ids) // 2))
    for index, node_id in enumerate(sample):
        db.put(label_of(index), node_id)
    db.put(label_of(len(sample) + 3), sample[0])          # (ii) duplicate subscriber
    db.put(label_of(len(sample) + 5), None)                # (i) tuple without subscriber
    db.put(_random_label(rng, config.max_random_label_bits) * 2 + "1", sample[-1])
    # (iii) holes arise implicitly because we skipped labels above; (iv) the
    # out-of-range labels were just inserted.


def inject_corrupted_messages(system: SupervisedPubSub, subscribers: List[Subscriber],
                              config: AdversarialConfig, topic: Optional[str] = None) -> None:
    """Place garbage protocol messages into random channels."""
    topic = topic or system.params.default_topic
    rng = random.Random(config.seed * 15485863 + 3)
    ids = [s.node_id for s in subscribers]
    actions = [msg.INTRODUCE, msg.LINEARIZE, msg.SET_DATA, msg.INTRODUCE_SHORTCUT,
               msg.CHECK_TRIE, msg.REMOVE_CONNECTIONS, "BogusAction"]
    for _ in range(config.corrupted_messages):
        dest = rng.choice(ids)
        action = rng.choice(actions)
        params: Dict[str, object]
        if action == msg.INTRODUCE:
            params = {"node": rng.choice(ids), "label": _random_label(rng, 8),
                      "believed": _random_label(rng, 8), "flag": rng.choice(["LIN", "CYC"])}
        elif action == msg.LINEARIZE:
            params = {"node": rng.choice(ids), "label": _random_label(rng, 8)}
        elif action == msg.SET_DATA:
            params = {"pred": (_random_label(rng, 8), rng.choice(ids)),
                      "label": _random_label(rng, 8),
                      "succ": (_random_label(rng, 8), rng.choice(ids))}
        elif action == msg.INTRODUCE_SHORTCUT:
            params = {"node": rng.choice(ids), "label": _random_label(rng, 8)}
        elif action == msg.CHECK_TRIE:
            params = {"sender": rng.choice(ids), "tuples": [["01", "nothash"]]}
        elif action == msg.REMOVE_CONNECTIONS:
            params = {"node": rng.choice(ids)}
        else:
            params = {"junk": rng.random()}
        system.sim.inject_message(dest, action, params, topic=topic)


def build_adversarial_system(config: AdversarialConfig,
                             params: Optional[ProtocolParams] = None,
                             sim_config: Optional[SimulatorConfig] = None,
                             topic: Optional[str] = None,
                             ) -> tuple[SupervisedPubSub, List[Subscriber]]:
    """Create a system of ``config.n`` subscribers in an adversarial state.

    The subscribers are registered as intending to be subscribed (so the
    legitimacy check knows the target membership), but no protocol messages
    have been exchanged: labels, neighbours, shortcuts, the database and the
    channels are all set directly as dictated by ``config``.
    """
    from repro.api.builder import build_system
    from repro.api.spec import SystemSpec

    params = params or ProtocolParams()
    # The facade's precedence: a given sim_config wins wholesale (its seed
    # included) and config.seed is then ignored, never a conflict.
    system = build_system(SystemSpec(params=params, sim=sim_config) if sim_config is not None
                          else SystemSpec(seed=config.seed, params=params))
    topic = topic or params.default_topic
    subscribers = []
    for _ in range(config.n):
        peer = system.add_peer()
        view = peer.view(topic, subscribed=True)
        assert view is not None
        view.subscribed = True
        system.registry.subscribe(peer.node_id, topic)
        subscribers.append(peer)
    scramble_topic_views(system, subscribers, config, topic)
    corrupt_supervisor_database(system, subscribers, config, topic)
    inject_corrupted_messages(system, subscribers, config, topic)
    return system, subscribers
