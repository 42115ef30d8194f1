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
* channels may hold any message of the protocol's vocabulary (:func:`value_pool`).

The experiments then run the protocol and measure the time to reach a
legitimate state.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import ProtocolParams, require_int_fields
from repro.core.labels import label_of
from repro.core.messages import protocol_schema
from repro.core.subscriber import Neighbor, Subscriber
from repro.core.facade import SupervisedPubSub
from repro.pubsub.hashing import publication_key
from repro.sim.rng import derive_rng

MAX_RANDOM_LABEL_BITS = 10  #: the longest random (corrupted) label

_WIRE = {"publisher": 1, "payload": "00", "key_bits": 64}
_GENUINE, _KEY = dict(_WIRE, payload=b"genuine".hex()), publication_key(1, b"genuine", bits=64)

#: Values no honest sender puts in a message, by the key each was first forged in
#: (each once ended a run, was stored or flooded on).  A 64-bit receiver drops the
#: wires; the last five name ``_GENUINE``'s key (its holder drops them as copies).
FORGED: Dict[str, Tuple[Any, ...]] = {
    "ref": (None, True, -5, 10**9, "x", (1, 2), [1], [3], {"a": 1}, {}),
    "label": ("", "2x", "0x", None, "0" * 40 + "1", 7, ["0"]),
    "pair": ({"label": "0", "ref": 2}, {0: "0"}, {"0", 2}, 7, ("0",), ("0", "ref"), ("2x", 2)),
    "hops": ("x", None, 1.5, True, 0, [2]),
    "tuples": ([{}], [{"x": 1}], [[]], [["01"]], [[1, 2]], [["0x", "h"]], "01", 7, None),
    "topic": (["x"], {"a": 1}, 7, b"t"),
    "wire": (*(dict(_WIRE, key_bits=bits) for bits in (8, 0, 300, "many")),
             *(dict(_WIRE, payload=payload) for payload in ("not hex", ["00"], b"00")),
             dict(_WIRE, publisher=None), [1, "00", 64], "publication", 7,
             *({k: v for k, v in _WIRE.items() if k != key} for key in _WIRE),
             *(dict(_GENUINE, **forged) for forged in (
                 {"key": 7}, {"key": ["0"]}, {"key": "1" * 64},
                 {"key_bits": 8, "key": _KEY}, {"payload": "not hex", "key": _KEY}))),
}


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

    def __post_init__(self) -> None:
        require_int_fields(self, "n", "seed", "components", "corrupted_messages")
        for name, low, high in (("n", 1, float("inf")), ("components", 1, self.n),
                                ("corrupted_messages", 0, float("inf")),
                                ("fraction_unlabeled", 0, 1), ("fraction_random_labels", 0, 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not low <= value <= high:
                raise ValueError(f"AdversarialConfig.{name} must lie in [{low}, {high}], "
                                 f"got {value!r}")
        if self.fraction_unlabeled + self.fraction_random_labels > 1:
            raise ValueError("AdversarialConfig.fraction_unlabeled + fraction_random_labels "
                             "must be at most 1")
        if self.database_mode not in {"empty", "partial", "corrupted", "correct"}:
            raise ValueError(f"unknown database_mode {self.database_mode!r}")


def _random_label(rng: random.Random) -> str:
    length = rng.randint(1, MAX_RANDOM_LABEL_BITS)
    bits = "".join(rng.choice("01") for _ in range(length - 1))
    return bits + "1" if length > 1 else rng.choice(("0", "1"))


def value_pool(system: SupervisedPubSub, topic: str) -> List[Any]:
    """Every value a corrupted message may carry: :data:`FORGED` (its wires also
    in one list), then ``system``'s subscriber and supervisor ids, an id that never
    existed, the held labels and ``(label, id)`` pairs, and valid labels nobody
    holds (one level below each held label; the next two a joiner would get)."""
    n = len(system.subscribers)
    held = [(sub.views[topic].label, ref) for ref, sub in system.subscribers.items()
            if topic in sub.views and sub.views[topic].label is not None]
    return [*chain.from_iterable(FORGED.values()), list(FORGED["wire"]), *system.subscribers,
            *system.supervisor_node_ids(), max(system.sim.nodes) + 1, *(label for label, _ in held),
            *held, *(label + "1" for label, _ in held), label_of(n), label_of(n + 1)]


def scramble_topic_views(system: SupervisedPubSub, subscribers: List[Subscriber],
                         config: AdversarialConfig, topic: str) -> None:
    """Assign arbitrary labels/neighbours/shortcuts to every subscriber.

    The subscribers are split into ``config.components`` groups; within each
    group the left/right pointers form a random chain (so each group is weakly
    connected), and pointers never cross groups.
    """
    rng = derive_rng(config.seed, "initial-state", "views", topic)
    ids = [s.node_id for s in subscribers]
    rng.shuffle(ids)
    groups = [ids[index::config.components] for index in range(config.components)]

    label_by_id: Dict[int, Optional[str]] = {}
    remaining_correct = [label_of(i) for i in range(len(subscribers))]
    rng.shuffle(remaining_correct)
    random_below = config.fraction_unlabeled + config.fraction_random_labels
    for node_id in ids:
        roll = rng.random()
        label_by_id[node_id] = (None if roll < config.fraction_unlabeled else
                                _random_label(rng) if roll < random_below or not remaining_correct
                                else remaining_correct.pop())

    for group in groups:
        for position, node_id in enumerate(group):
            view = system.subscribers[node_id].views[topic]
            view.label = label_by_id[node_id]
            view.left = view.right = view.ring = None
            view.shortcuts = {}
            # Chain pointers keep each group weakly connected regardless of
            # how wrong the stored labels are.
            if position > 0:
                view.left = Neighbor(label_by_id[group[position - 1]] or "0", group[position - 1])
            if position + 1 < len(group):
                view.right = Neighbor(label_by_id[group[position + 1]] or "1", group[position + 1])
            # Sprinkle bogus shortcut entries.
            if rng.random() < 0.5 and len(group) > 2:
                target = rng.choice(group)
                if target != node_id:
                    view.shortcuts[_random_label(rng)] = target
            if rng.random() < 0.3:
                view.shortcuts[_random_label(rng)] = None


def corrupt_supervisor_database(system: SupervisedPubSub, subscribers: List[Subscriber],
                                config: AdversarialConfig, topic: str) -> None:
    """Initialise the supervisor database according to ``config.database_mode``."""
    rng = derive_rng(config.seed, "initial-state", "database", topic)
    db = system.supervisor_of(topic).database(topic)
    db.clear()
    ids = [s.node_id for s in subscribers]
    if config.database_mode == "empty":
        return
    sample = ids if config.database_mode == "correct" else rng.sample(
        ids, max(1 if config.database_mode == "partial" else 2, len(ids) // 2))
    for index, node_id in enumerate(sample):
        db.put(label_of(index), node_id)
    if config.database_mode != "corrupted":
        return
    # corrupted: exercise all four corruption conditions of Section 3.1
    db.put(label_of(len(sample) + 3), sample[0])          # (ii) duplicate subscriber
    db.put(label_of(len(sample) + 5), None)                # (i) tuple without subscriber
    db.put(_random_label(rng) * 2 + "1", sample[-1])
    # (iii) holes arise implicitly because we skipped labels above; (iv) the
    # out-of-range labels were just inserted.


def inject_corrupted_messages(system: SupervisedPubSub, subscribers: List[Subscriber],
                              config: AdversarialConfig, topic: str) -> None:
    """Place ``config.corrupted_messages`` garbage messages into channels: an
    action of either role (:func:`~repro.core.messages.protocol_schema`) to a
    subscriber or the topic's supervisor, each of its keys and a ``self`` no
    handler takes present with probability 3/4, valued from :func:`value_pool`."""
    rng = derive_rng(config.seed, "initial-state", "messages", topic)
    pool = value_pool(system, topic)
    dests = {"subscriber": [s.node_id for s in subscribers],
             "supervisor": [system.supervisor_of(topic).node_id]}
    actions = [(role, action, keys) for role, table in protocol_schema().items()
               for action, keys in table.items()]
    for _ in range(config.corrupted_messages):
        role, action, keys = rng.choice(actions)
        params = {key: copy.deepcopy(rng.choice(pool)) for key in (*keys, "self")
                  if rng.random() < 0.75}
        system.sim.inject_message(rng.choice(dests[role]), action, params, topic=topic)


def build_adversarial_system(config: AdversarialConfig,
                             params: Optional[ProtocolParams] = None,
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
    system = build_system(SystemSpec(seed=config.seed, params=params))
    topic = topic or params.default_topic
    subscribers = []
    for _ in range(config.n):
        peer = system.add_peer()
        peer.view(topic, subscribed=True)
        system.registry.subscribe(peer.node_id, topic)
        subscribers.append(peer)
    scramble_topic_views(system, subscribers, config, topic)
    corrupt_supervisor_database(system, subscribers, config, topic)
    inject_corrupted_messages(system, subscribers, config, topic)
    return system, subscribers
