"""The subscriber's part of BuildSR plus the publication protocol.

A subscriber runs one protocol instance (:class:`TopicView`) per topic it
participates in (Section 4).  Each view maintains

* ``label`` — the label assigned by the supervisor (or ``None``),
* ``left`` / ``right`` — the list neighbours of the sorted ring,
* ``ring`` — the wrap-around neighbour if the node occupies the minimal or
  maximal ring position,
* ``shortcuts`` — shortcut targets keyed by their (locally computed) labels,
* a Patricia trie of publications.

The periodic ``Timeout`` performs, in order: the extended BuildRing
maintenance (linearization with label correction, Section 2.2 and
Algorithms 1–2), the probabilistic configuration requests to the supervisor
(Section 3.2.1, actions (i)–(iv)), shortcut maintenance and the pairwise
shortcut introductions (Section 3.2.2), and one anti-entropy exchange with a
random ring neighbour (Algorithm 5).

Each message handler is a :class:`Subscriber` ``on_<Action>`` method that
finds the view of the message's topic and does the work itself.

A node of a legitimate skip ring does the same thing every period (closure),
so a view derives what follows from ``(label, left, right, ring)`` alone once
(:class:`_TimeoutPlan`, current exactly while the four are *the same
objects*) and sends the same params dicts again, each through the simulator's
``_send_fast`` read once per Timeout.  It receives the same messages again
too, and each "nothing to do" case is answered on the first lines of its
handler: a ring neighbour restating itself under a current plan
(``Introduce``), a shortcut stored already (``IntroduceShortcut``), a root
summary equal to ours (``CheckTrie``), a copy of a stored publication (the
key its wire names finds it, equality confirms it: ``PublishNew``,
``Publish``).  Every other input takes the full path.  Every dict a view
caches is shared by all the messages sent from it and therefore read-only:
handlers get a ``**params`` copy and the engine's in-place ``topic`` fold is
idempotent.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core import messages as msg
from repro.core.config import ProtocolParams
from repro.core.labels import Label, closer, is_valid_label, ring_key
from repro.core.shortcuts import shortcut_labels_from_neighbor
from repro.pubsub.antientropy import handle_check_and_publish, handle_check_trie
from repro.pubsub.patricia import PatriciaTrie
from repro.pubsub.publications import Publication
from repro.sim.node import NodeRef, ProtocolNode

#: ``dict.get`` default that no reference carried by a message can equal.
_ABSENT = object()
#: A ``_TimeoutPlan.level_pair`` ref: "the shortcut stored under this label".
_VIA = object()


class Neighbor(NamedTuple):
    """A stored reference together with the label the holder believes it has."""

    label: Label
    ref: NodeRef


class _TimeoutPlan:
    """What a Timeout derives from ``(label, left, right, ring)`` alone.

    Built right after ``_sanitize_sides`` and current exactly while the view
    holds *the same four objects* (compared with ``is``, so any write — a
    handler's, a test's, ``workloads/initial_states.py``'s — misses and
    rebuilds): a current plan therefore also says the view is sane.
    """

    __slots__ = ("label", "left", "right", "ring", "introduces", "restated",
                 "request_probability", "level_pair", "expected", "targets")

    def __init__(self, view: "TopicView") -> None:
        label, node_id = view.label, view.node_id
        left, right, ring = view.left, view.right, view.ring
        self.label, self.left, self.right, self.ring = label, left, right, ring
        #: ``(dest, Introduce params)`` per stored ring neighbour, carrying the
        #: label we believe it has (extended BuildRing)
        self.introduces = [
            (nb.ref, {"node": node_id, "label": label, "believed": nb.label, "flag": flag})
            for nb, flag in ((left, msg.FLAG_LIN), (right, msg.FLAG_LIN), (ring, msg.FLAG_CYC))
            if nb is not None]
        params = view.owner.params
        # Action (iv) when the node locally looks like the minimum but has no
        # wrap-around partner (so it may be the head of an unrecorded
        # component) or is completely isolated, action (ii) otherwise.
        if params.enable_minimal_request and left is None and ring is None:
            self.request_probability = params.minimal_request_probability
        else:
            self.request_probability = params.request_probability(len(label))
        # The ring neighbours, whether stored in ``left``/``right`` or ``ring``.
        cyc: Tuple[Neighbor, ...] = ()
        if ring is not None:
            if left is None and ring_key(ring.label) > ring_key(label):
                left = ring
                cyc = (ring,)
            if right is None and ring_key(ring.label) < ring_key(label):
                right = ring
                cyc = (ring,)
        #: What an ``Introduce`` flagged LIN / CYC may restate to no effect: a
        #: list neighbour (sanitized: on its side of the label) / the
        #: wrap-around partner, when the list side it stands for is empty.
        self.restated = ((self.left, self.right), cyc)
        # The two shortcut chains are a pure function of the label triple.
        left_chain = shortcut_labels_from_neighbor(label, left.label if left else None)
        right_chain = shortcut_labels_from_neighbor(label, right.label if right else None)
        self.expected = {*left_chain, *right_chain} - {label}
        #: Our two neighbours in the level-``|label|`` ring (Algorithm 4,
        #: lines 12–14) as ``(label, ref, label, ref)``: on each side the
        #: ring neighbour itself or, when it is deeper than we are, the
        #: shortcut stored under the terminal label of the recursion (its ref
        #: ``_VIA``, read at each Timeout).  ``None`` when a side has no neighbour.
        self.level_pair = None if left is None or right is None else (
            *((left_chain[-1], _VIA) if left_chain else left),
            *((right_chain[-1], _VIA) if right_chain else right))
        #: sorted anti-entropy targets, filled in on first use
        self.targets: Optional[List[NodeRef]] = None


class TopicView:
    """Per-topic protocol state of a subscriber.

    Slotted: a million-subscriber simulation holds one view per (node, topic)
    pair and the routing/shortcut fields are read on every delivered message,
    so the state lives in fixed slots instead of a per-instance dict.

    ``_plan`` caches what a Timeout derives from ``(label, left, right,
    ring)`` and is matched by identity, so every write to one of the four
    rebuilds it; ``_pair_memo`` holds the last ``IntroduceShortcut`` pair,
    matched by value, ``_check_memo`` the last ``CheckTrie`` params, matched
    by the identity of the root digest they carry, and ``_flood_memo`` the
    flood targets of ``(left, right, ring, shortcuts)``, matched by value (a
    neighbour by identity first).  Cached dicts are shared: read-only.
    """

    __slots__ = ("owner", "node_id", "topic", "subscribed", "pending_unsubscribe",
                 "label", "left", "right", "ring", "shortcuts", "trie",
                 "config_change_count", "_last_config_state", "_plan",
                 "_pair_memo", "_check_memo", "_flood_memo")

    def __init__(self, owner: "Subscriber", topic: str, subscribed: bool) -> None:
        self.owner = owner
        self.node_id: NodeRef = owner.node_id
        self.topic = topic
        self.subscribed = subscribed
        self.pending_unsubscribe = False
        self.label: Optional[Label] = None
        self.left: Optional[Neighbor] = None
        self.right: Optional[Neighbor] = None
        self.ring: Optional[Neighbor] = None
        self.shortcuts: Dict[Label, Optional[NodeRef]] = {}
        self.trie = PatriciaTrie(key_bits=owner.params.publication_key_bits)
        #: number of SetData messages that actually changed label or neighbours
        self.config_change_count = 0
        self._last_config_state: Optional[Tuple] = None
        self._plan: Optional[_TimeoutPlan] = None
        self._pair_memo: Optional[tuple] = None  # (first, second, their labels, params)
        self._check_memo: Optional[Tuple[str, dict]] = None
        self._flood_memo: Optional[tuple] = None  # ((left, right, ring, shortcuts), targets)

    # ------------------------------------------------------------------ sends
    # ``ProtocolNode.send``'s two tests, made by the view itself, in front of
    # the simulator's ``_send_fast`` (bound once per simulator, read per call
    # or once per Timeout/flood; a detached owner's ``sim`` raises the
    # explanatory error).
    def send(self, dest: Optional[NodeRef], action: str, **params) -> None:
        owner = self.owner
        if not owner.crashed and dest is not None:
            (owner._sim or owner.sim)._send_fast(self.node_id, dest, action, self.topic, params)

    def send_supervisor(self, action: str, **params) -> None:
        self.send(self.owner.supervisor_for(self.topic), action, **params)

    # ------------------------------------------------------------- inspection
    def neighbor_refs(self) -> Set[NodeRef]:
        """All explicit neighbour references (ring + shortcuts)."""
        refs = self.ring_neighbor_refs()
        refs.update(ref for ref in self.shortcuts.values() if ref is not None)
        refs.discard(self.node_id)
        return refs

    def ring_neighbor_refs(self) -> Set[NodeRef]:
        return {nb.ref for nb in (self.left, self.right, self.ring)
                if nb is not None and nb.ref != self.node_id}

    # ==================================================================== ring
    def timeout(self) -> None:
        label = self.label
        if label is None:
            if self.subscribed or self.neighbor_refs():
                self._timeout_without_label()
            return
        plan = self._plan
        if (plan is None or plan.label is not label or plan.left is not self.left
                or plan.right is not self.right or plan.ring is not self.ring):
            self._sanitize_sides()
            plan = self._plan = _TimeoutPlan(self)
        # Each send below makes :meth:`send`'s tests in place: one frame per message.
        owner = self.owner
        send_fast = (owner._sim or owner.sim)._send_fast
        node_id, topic = self.node_id, self.topic
        for dest, introduce in plan.introduces:
            if not owner.crashed and dest is not None:
                send_fast(node_id, dest, msg.INTRODUCE, topic, introduce)
        # Actions (ii)/(iv) of Section 3.2.1, or the unsubscribe request.
        if self.pending_unsubscribe:
            self.send_supervisor(msg.UNSUBSCRIBE, node=node_id)
        elif owner.rng.random() < plan.request_probability:
            self.send_supervisor(msg.GET_CONFIGURATION, node=node_id)
            owner.configuration_requests += 1
        params = owner.params
        if params.shortcut_maintenance:
            self._maintain_shortcuts(plan, send_fast)
        if params.enable_anti_entropy:
            self._anti_entropy_round(plan, send_fast)

    def _disconnect(self) -> None:
        """Tell every neighbour to drop us, then drop them all (Algorithm 2,
        label = ⊥ branch)."""
        for nb in (self.left, self.right, self.ring):
            if nb is not None:
                self.send(nb.ref, msg.REMOVE_CONNECTIONS, node=self.node_id)
        for ref in set(self.shortcuts.values()):
            if ref is not None:
                self.send(ref, msg.REMOVE_CONNECTIONS, node=self.node_id)
        self.left = self.right = self.ring = None
        self.shortcuts = {}

    def _timeout_without_label(self) -> None:
        """Algorithm 2 (label = ⊥ branch) + action (i) of Section 3.2.1."""
        self._disconnect()
        if self.subscribed:
            self.send_supervisor(msg.SUBSCRIBE, node=self.node_id)

    def _sanitize_sides(self) -> None:
        """Re-linearize neighbours that are on the wrong side of our label and
        ring pointers that should not exist (Algorithms 1–2 Timeout)."""
        assert self.label is not None
        own = ring_key(self.label)
        if self.left is not None and ring_key(self.left.label) >= own:
            stale = self.left
            self.left = None
            self._integrate(stale.label, stale.ref)
        if self.right is not None and ring_key(self.right.label) <= own:
            stale = self.right
            self.right = None
            self._integrate(stale.label, stale.ref)
        if self.ring is not None:
            if self.ring.ref == self.node_id:
                self.ring = None
            elif self.left is not None and self.right is not None:
                # A node with both list neighbours is not an endpoint: the wrap
                # pointer is stale, push it back into the list.
                stale = self.ring
                self.ring = None
                self._integrate(stale.label, stale.ref)

    # ------------------------------------------------------------- shortcuts
    def _maintain_shortcuts(self, plan: _TimeoutPlan, send_fast: Callable) -> None:
        """Hold exactly the expected shortcut labels and introduce our two
        own-level neighbours to each other (Section 3.2.2)."""
        shortcuts = self.shortcuts
        expected = plan.expected
        if shortcuts.keys() != expected:
            # Prune entries whose label we no longer expect; delegate their
            # refs into the ring so the references are not lost.
            for stale_label in [lbl for lbl in shortcuts if lbl not in expected]:
                ref = shortcuts.pop(stale_label)
                if ref is not None and ref != self.node_id:
                    self._integrate(stale_label, ref)
            # Sorted so the shortcuts dict's insertion order (and therefore
            # every later iteration over it, i.e. the message send order) is
            # independent of PYTHONHASHSEED — runs must be reproducible across
            # processes.
            for wanted in sorted(expected):
                shortcuts.setdefault(wanted, None)
        if plan.level_pair is None:
            return
        first_label, first, second_label, second = plan.level_pair
        if first is _VIA and (first := shortcuts.get(first_label)) is None:
            return
        if second is _VIA and (second := shortcuts.get(second_label)) is None:
            return
        memo = self._pair_memo
        if (memo is None or memo[0] != first or memo[1] != second
                or memo[2] != first_label or memo[3] != second_label):
            if first == second or self.node_id in (first, second):
                introductions = None  # not two distinct other nodes
            else:
                introductions = ({"node": second, "label": second_label},
                                 {"node": first, "label": first_label})
            memo = self._pair_memo = (first, second, first_label, second_label, introductions)
        introductions = memo[4]
        if introductions is not None:
            owner, node_id, topic = self.owner, self.node_id, self.topic
            if not owner.crashed and first is not None:
                send_fast(node_id, first, msg.INTRODUCE_SHORTCUT, topic, introductions[0])
            if not owner.crashed and second is not None:
                send_fast(node_id, second, msg.INTRODUCE_SHORTCUT, topic, introductions[1])

    # ------------------------------------------------------------- integrate
    def _integrate(self, cand_label: Label, cand_ref: NodeRef, cyc: bool = False) -> None:
        """Linearization: place a reference where it belongs or delegate it
        towards its position (Algorithm 1 / Algorithm 2)."""
        if (cand_ref == self.node_id or not isinstance(cand_ref, int)
                or not is_valid_label(cand_label)):
            return
        if self.label is None:
            self.send(cand_ref, msg.REMOVE_CONNECTIONS, node=self.node_id)
            return
        own = ring_key(self.label)
        cand_r = ring_key(cand_label)
        if cand_r == own:
            # Two nodes claiming the same ring position: only the supervisor
            # can resolve this; ask it to refresh the other node.
            self.send_supervisor(msg.GET_CONFIGURATION, node=cand_ref)
            return
        if cyc:
            self._integrate_cycle(cand_label, cand_ref)
            return
        if cand_r < own:
            self._integrate_side("left", cand_label, cand_ref)
        else:
            self._integrate_side("right", cand_label, cand_ref)

    def _integrate_side(self, side: str, cand_label: Label, cand_ref: NodeRef) -> None:
        current: Optional[Neighbor] = getattr(self, side)
        assert self.label is not None
        if current is None:
            setattr(self, side, Neighbor(cand_label, cand_ref))
            return
        if current.ref == cand_ref:
            if current.label != cand_label:
                setattr(self, side, Neighbor(cand_label, cand_ref))
            return
        if closer(cand_label, current.label, self.label):
            setattr(self, side, Neighbor(cand_label, cand_ref))
            # Delegate the displaced neighbour to the new, closer one.
            self.send(cand_ref, msg.LINEARIZE, node=current.ref, label=current.label)
        else:
            # Delegate the candidate towards its position.
            self.send(current.ref, msg.LINEARIZE, node=cand_ref, label=cand_label)

    def _integrate_cycle(self, cand_label: Label, cand_ref: NodeRef) -> None:
        """Handle an introduction flagged CYC: the sender believes we are an
        endpoint of the sorted list and it is our wrap-around partner."""
        assert self.label is not None
        if ring_key(cand_label) > ring_key(self.label):
            # The candidate is larger, so we would be the minimum.
            if self.left is None:
                self._keep_farthest_ring(cand_label, cand_ref, prefer_larger=True)
            else:
                self._integrate(cand_label, cand_ref)
        else:
            if self.right is None:
                self._keep_farthest_ring(cand_label, cand_ref, prefer_larger=False)
            else:
                self._integrate(cand_label, cand_ref)

    def _keep_farthest_ring(self, cand_label: Label, cand_ref: NodeRef,
                            prefer_larger: bool) -> None:
        """Keep the wrap-around candidate farthest from us (Algorithm 2,
        line 31) and push the loser into the sorted list."""
        if self.ring is None or self.ring.ref == cand_ref:
            if self.ring is None or self.ring.label != cand_label:
                self.ring = Neighbor(cand_label, cand_ref)
            return
        current_r = ring_key(self.ring.label)
        cand_r = ring_key(cand_label)
        keep_candidate = cand_r > current_r if prefer_larger else cand_r < current_r
        if keep_candidate:
            loser = self.ring
            self.ring = Neighbor(cand_label, cand_ref)
            self._integrate(loser.label, loser.ref)
        else:
            self._integrate(cand_label, cand_ref)

    def _adopt_config_side(self, proposed: Optional[Neighbor], is_pred: bool) -> None:
        """Install the supervisor-provided predecessor/successor (a stored
        equal one stays the object it is: the Timeout plan matches by identity)."""
        assert self.label is not None
        if proposed is None or proposed.ref == self.node_id:
            return
        own = ring_key(self.label)
        proposed_r = ring_key(proposed.label)
        side = "left" if is_pred else "right"
        if proposed_r > own if is_pred else proposed_r < own:
            # The wrap-around partner: it lives in ``ring`` and the list side
            # it would otherwise occupy is empty.
            if self.ring != proposed:
                self.ring = proposed
            setattr(self, side, None)
        elif getattr(self, side) != proposed:
            setattr(self, side, proposed)

    def _clear_membership(self) -> None:
        """Handle ``SetData(⊥, ⊥, ⊥)``: drop the label and all connections
        (Lemma 6: the node eventually disconnects from the skip ring)."""
        changed = self.label is not None
        self.label = None
        self._disconnect()
        if changed:
            self.config_change_count += 1
        if self.pending_unsubscribe:
            self.pending_unsubscribe = False
            self.subscribed = False

    # ============================================================ publications
    def publish(self, payload: bytes | str) -> Publication:
        """Create a new publication, store it locally and flood it."""
        publication = Publication.create(self.node_id, payload,
                                         key_bits=self.owner.params.publication_key_bits)
        self.trie.insert(publication)
        self.owner.sim.tracer.record(self.owner.now, "publish", node=self.node_id,
                                     topic=self.topic, key=publication.key)
        if self.owner.params.enable_flooding:
            self._flood(publication, hops=1, exclude=None)
        return publication

    def _flood(self, publication: Publication, hops: int, exclude: object) -> None:
        """Forward to every :meth:`neighbor_refs` target, sorted, but ``exclude``,
        the node the message arrived from: the paper does not require skipping
        it, but that halves redundant traffic and the receiver drops duplicates
        anyway.  ``exclude`` is message content, so it is only ever compared."""
        owner = self.owner
        if owner.crashed:
            return
        state, memo = (self.left, self.right, self.ring, self.shortcuts), self._flood_memo
        if memo is None or memo[0] != state:
            memo = self._flood_memo = ((*state[:3], dict(self.shortcuts)),
                                       sorted(self.neighbor_refs()))
        # :meth:`send` to each target, its tests made once and its frame
        # saved: one read-only dict for the whole flood.
        send_fast = (owner._sim or owner.sim)._send_fast
        node_id, topic = self.node_id, self.topic
        params = {"pub": publication.wire, "hops": hops, "sender": node_id}
        for ref in memo[1]:
            if ref != exclude:
                send_fast(node_id, ref, msg.PUBLISH_NEW, topic, params)

    def _receive(self, wire: object) -> Optional[Publication]:
        """The publication ``wire`` carries, if new here and now stored; a copy of a
        stored one (its wire, or an equal dict, under the key it names) costs one lookup."""
        key = wire.get("key") if wire.__class__ is dict else None
        stored = self.trie._by_key.get(key) if key.__class__ is str else None
        if stored is not None and (stored.wire is wire or stored.wire == wire):
            return None
        try:  # a forged key_bits derives a key of another length: insert refuses it
            publication = Publication.from_wire(wire)
            return publication if self.trie.insert(publication) else None
        except (KeyError, ValueError, TypeError):
            return None

    def _anti_entropy_round(self, plan: _TimeoutPlan, send_fast: Callable) -> None:
        """Send our trie root to a random direct ring neighbour (Algorithm 5)."""
        owner = self.owner
        rng = owner.rng
        if rng.random() >= owner.params.anti_entropy_probability:
            return
        root = self.trie.root
        if root is None:
            return  # nothing to offer; a neighbour's request still reaches us
        if plan.left is self.left and plan.right is self.right and plan.ring is self.ring:
            targets = plan.targets
            if targets is None:
                targets = plan.targets = sorted(self.ring_neighbor_refs())
        else:
            # Shortcut upkeep has just re-linearized a pruned reference: the
            # ring pointers are no longer the plan's.
            targets = sorted(self.ring_neighbor_refs())
        if not targets:
            return
        memo = self._check_memo
        if memo is None or memo[0] is not root._hash:
            # Every insert clears the root's cached digest (and may put a new
            # root above it): the digest object the memo was built from is
            # current exactly while the root still holds it.
            summary = self.trie.root_summary()
            memo = self._check_memo = (
                root._hash, {"sender": self.node_id, "tuples": [summary]})
        dest = rng.choice(targets)
        if not owner.crashed and dest is not None:
            send_fast(self.node_id, dest, msg.CHECK_TRIE, self.topic, memo[1])

    def _answer(self, sender: NodeRef, reply_tuples: list, caps: list) -> None:
        """Send what :mod:`repro.pubsub.antientropy` computed, as it computed it."""
        if reply_tuples:
            self.send(sender, msg.CHECK_TRIE, sender=self.node_id, tuples=reply_tuples)
        for tuples, prefix in caps:
            self.send(sender, msg.CHECK_AND_PUBLISH, sender=self.node_id,
                      tuples=tuples, prefix=prefix)


def _as_neighbor(value: Optional[Sequence]) -> Optional[Neighbor]:
    """Decode a (label, ref) pair from message parameters, rejecting garbage."""
    if value is None:
        return None
    try:
        label, ref = value[0], value[1]
    except (KeyError, IndexError, TypeError):
        return None
    if not is_valid_label(label) or not isinstance(ref, int):
        return None
    return Neighbor(label, ref)


class Subscriber(ProtocolNode):
    """A peer that can subscribe to topics, publish and maintain the overlay.

    ``supervisor_for`` (a callable ``topic -> NodeRef``) names the supervisor
    every supervisor-bound request of a topic view goes to: the facade's
    ``shard_of``, so requests follow a topic to its owning shard.
    """

    __slots__ = ("supervisor_for", "params", "views", "rng", "configuration_requests")

    def __init__(self, node_id: NodeRef, supervisor_for: Callable[[str], NodeRef],
                 params: Optional[ProtocolParams] = None) -> None:
        super().__init__(node_id)
        self.supervisor_for = supervisor_for
        self.params = params or ProtocolParams()
        self.views: Dict[str, TopicView] = {}
        self.rng: random.Random = random.Random(node_id)
        #: total configuration requests this subscriber sent (Theorem 5 / E2)
        self.configuration_requests = 0

    def attach(self, sim) -> None:  # type: ignore[override]
        super().attach(sim)
        self.rng = sim.node_rng(self.node_id)

    # ------------------------------------------------------------------ views
    def view(self, topic: Optional[str] = None, create: bool = True,
             subscribed: bool = False) -> Optional[TopicView]:
        topic = topic or self.params.default_topic
        if topic not in self.views:
            if not create:
                return None
            self.views[topic] = TopicView(self, topic, subscribed=subscribed)
        return self.views[topic]

    def topics(self) -> List[str]:
        return sorted(self.views)

    # ------------------------------------------------------------- public API
    def subscribe(self, topic: Optional[str] = None) -> None:
        """Start participating in ``topic``; the protocol contacts the
        supervisor on the next Timeout (or immediately, see below)."""
        view = self.view(topic, subscribed=True)
        assert view is not None
        view.subscribed = True
        view.pending_unsubscribe = False
        if view.label is None:
            view.send_supervisor(msg.SUBSCRIBE, node=self.node_id)

    def unsubscribe(self, topic: Optional[str] = None) -> None:
        """Leave ``topic``: request permission from the supervisor and keep the
        protocol running until permission (``SetData(⊥,⊥,⊥)``) arrives."""
        view = self.view(topic, create=False)
        if view is None:
            return
        view.pending_unsubscribe = True
        view.send_supervisor(msg.UNSUBSCRIBE, node=self.node_id)

    def publish(self, payload: bytes | str, topic: Optional[str] = None) -> Publication:
        view = self.view(topic, subscribed=True)
        assert view is not None
        return view.publish(payload)

    def publications(self, topic: Optional[str] = None) -> List[Publication]:
        view = self.view(topic, create=False)
        return view.trie.all_publications() if view is not None else []

    def has_publication(self, key: str, topic: Optional[str] = None) -> bool:
        view = self.view(topic, create=False)
        return view is not None and key in view.trie

    def label(self, topic: Optional[str] = None) -> Optional[Label]:
        view = self.view(topic, create=False)
        return view.label if view is not None else None

    # --------------------------------------------------------------- timeout
    def on_timeout(self) -> None:
        for view in list(self.views.values()):
            view.timeout()


    # ------------------------------------------------------- message handlers
    # Each handler finds its view with the same expression — one dict lookup
    # for a known topic (never hashing a ``topic`` that is not a ``str``),
    # :meth:`_open_view` for everything else — and then does the work itself.
    def _open_view(self, topic: object) -> Optional[TopicView]:
        """The view of a topic the lookup missed: ``None``/``""`` mean the
        default topic and a topic never seen gets a view (in an arbitrary
        initial state we may be somebody's neighbour there).  A ``topic`` that
        is not a string at all is a forged message, dropped as ``None``."""
        if topic is not None and not isinstance(topic, str):
            return None
        return self.view(topic)

    def on_SetData(self, /, pred=None, label=None, succ=None, topic=None, **_) -> None:
        """Adopt a configuration from the supervisor (Algorithm 4, SetData)."""
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None:
            return
        if label is None:
            view._clear_membership()
            return
        if not view.subscribed:
            # We never asked for this topic (corrupted supervisor database or a
            # stale message): ask the supervisor to take us out again.
            view.send_supervisor(msg.UNSUBSCRIBE, node=self.node_id)
            return
        if not is_valid_label(label):
            return  # a forged SetData: ingress is where labels are checked
        pred_nb = _as_neighbor(pred)
        succ_nb = _as_neighbor(succ)
        changed = view.label != label
        # Action (iii): if a currently stored list neighbour is at least as
        # close as the proposed one, it might be unknown to the supervisor —
        # ask the supervisor to send it its configuration.
        for current, proposed in ((view.left, pred_nb), (view.right, succ_nb)):
            if current is None or proposed is None:
                continue
            if current.ref in (proposed.ref, self.node_id):
                continue
            if not closer(proposed.label, current.label, label):
                view.send_supervisor(msg.GET_CONFIGURATION, node=current.ref)
        if changed:
            view.label = label
        # The references this displaces are dropped rather than re-delegated:
        # the supervisor's configuration is authoritative, and a displaced node
        # that is still alive re-announces itself (or contacts the supervisor)
        # on its own Timeout.  Re-delegating here would keep references to
        # crashed subscribers circulating forever (Section 3.3).
        view._adopt_config_side(pred_nb, is_pred=True)
        view._adopt_config_side(succ_nb, is_pred=False)
        if pred_nb is None and succ_nb is None:
            # Single-subscriber system: no neighbours at all.
            view.left = view.right = view.ring = None
        new_state = (view.label,
                     view.left.ref if view.left else None,
                     view.right.ref if view.right else None,
                     view.ring.ref if view.ring else None)
        if changed or view._last_config_state != new_state:
            view.config_change_count += 1
        view._last_config_state = new_state

    def on_Introduce(self, /, node=None, label=None, believed=None, flag=None, topic=None,
                     **_) -> None:
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None:
            return
        own = view.label
        if own is None:
            view.send(node, msg.REMOVE_CONNECTIONS, node=self.node_id)
            return
        cyc = flag == msg.FLAG_CYC
        if believed != own:
            view.send(node, msg.CORRECT_LABEL, node=self.node_id, label=own)
        else:
            plan = view._plan
            if (plan is not None and plan.label is own and plan.left is view.left
                    and plan.right is view.right and plan.ring is view.ring
                    and (label, node) in plan.restated[cyc]):
                return  # a neighbour as stored: ``_integrate`` would leave it there
        view._integrate(label, node, cyc=cyc)  # checks ``label``

    def on_Linearize(self, /, node=None, label=None, topic=None, **_) -> None:
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is not None:
            view._integrate(label, node)  # checks ``label``

    def on_CorrectLabel(self, /, node=None, label=None, topic=None, **_) -> None:
        """A neighbour told us its actual label differs from what we stored."""
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None or not is_valid_label(label):
            return
        was_ring = view.ring is not None and view.ring.ref == node
        removed = False
        for side in ("left", "right", "ring"):
            nb: Optional[Neighbor] = getattr(view, side)
            if nb is not None and nb.ref == node and nb.label != label:
                setattr(view, side, None)
                removed = True
        for stored_label in [lbl for lbl, ref in view.shortcuts.items()
                             if ref == node and lbl != label]:
            view.shortcuts[stored_label] = None
            removed = True
        if removed:
            view._integrate(label, node, cyc=was_ring)

    def on_RemoveConnections(self, /, node=None, topic=None, **_) -> None:
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None:
            return
        for side in ("left", "right", "ring"):
            nb: Optional[Neighbor] = getattr(view, side)
            if nb is not None and nb.ref == node:
                setattr(view, side, None)
        for stored_label in [lbl for lbl, ref in view.shortcuts.items() if ref == node]:
            view.shortcuts[stored_label] = None

    def on_IntroduceShortcut(self, /, node=None, label=None, topic=None, **_) -> None:
        """Store an introduced shortcut if we expect one with that label,
        otherwise delegate the reference into the ring (Algorithm 4)."""
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None:
            return
        if view.label is None:
            view.send(node, msg.REMOVE_CONNECTIONS, node=self.node_id)
            return
        shortcuts = view.shortcuts
        if isinstance(label, str) and shortcuts.get(label, _ABSENT) == node:
            return  # stored already: nothing to store, nothing to delegate
        if node == self.node_id or not isinstance(node, int) or not is_valid_label(label):
            return
        if label in shortcuts:
            old = shortcuts[label]
            shortcuts[label] = node
            if old is not None:
                view._integrate(label, old)
        else:
            view._integrate(label, node)

    def on_CheckTrie(self, /, sender=None, tuples=None, topic=None, **_) -> None:
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None:
            return
        # One summary equal to our root's (its digest as cached: a stale cache
        # is ``None`` and misses) — ``handle_check_trie`` would answer nothing.
        root = view.trie.root
        if (tuples.__class__ is list and len(tuples) == 1 and root is not None
                and tuples[0] == (root.label, root._hash)):
            return
        view._answer(sender, *handle_check_trie(view.trie, tuples))

    def on_CheckAndPublish(self, /, sender=None, tuples=None, prefix=None, topic=None,
                           **_) -> None:
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None:
            return
        reply_tuples, caps, publications = handle_check_and_publish(view.trie, tuples, prefix)
        view._answer(sender, reply_tuples, caps)
        if publications:
            view.send(sender, msg.PUBLISH, pubs=[p.wire for p in publications])

    def on_Publish(self, /, pubs=None, topic=None, **_) -> None:
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        if view is None or not isinstance(pubs, (list, tuple)):
            return
        for wire in pubs:
            if (publication := view._receive(wire)) is not None:
                (sim := self._sim).tracer.record(sim.now, "publication_received", node=self.node_id,
                                                 topic=view.topic, key=publication.key,
                                                 via="antientropy")

    def on_PublishNew(self, /, pub=None, hops=None, sender=None, topic=None, **_) -> None:
        if pub is None:
            return
        view = (topic.__class__ is str and self.views.get(topic)) or self._open_view(topic)
        # Forged content is dropped with its message (anti-entropy delivers what it
        # carried): a hop count that is not an int >= 1 (a bool is not), or a bad wire.
        if view is None or hops.__class__ is not int or hops < 1:
            return
        if (publication := view._receive(pub)) is not None:
            (sim := self._sim).tracer.record(sim.now, "flood_delivery", node=self.node_id,
                                             topic=view.topic, key=publication.key, hops=hops)
            view._flood(publication, hops=hops + 1, exclude=sender)
