"""The supervisor's part of the BuildSR protocol (paper Sections 3.1, 3.3, 4.1).

The supervisor is the commonly known gateway of the system.  Per topic it
maintains a *database* mapping labels to subscriber references plus a
round-robin counter ``next``.  Its responsibilities are deliberately tiny:

* hand out labels and configurations on ``Subscribe`` / ``Unsubscribe`` /
  ``GetConfiguration`` requests (a constant number of messages each,
  Theorem 7),
* periodically repair its own database (the four corruption conditions of
  Section 3.1 plus removal of crashed subscribers, Section 3.3) — all local
  work, no messages, and
* periodically send one subscriber its correct configuration, chosen in a
  round-robin fashion (Algorithm 3, Timeout).

The supervisor never participates in publication dissemination.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import messages as msg
from repro.core.config import ProtocolParams
from repro.core.labels import (
    Label,
    index_of,
    is_canonical_label,
    is_valid_label,
    label_of,
    ring_key,
)
from repro.sim.node import NodeRef, ProtocolNode

#: A configuration entry as sent to subscribers: (label, node reference).
Entry = Tuple[Label, NodeRef]


#: An entry as the ring order sees it: ``(invalid?, ring key, insertion number,
#: label)``.  Invalid labels go last and ties (equal ``r``, or two invalid
#: labels) keep insertion order — what a stable sort of the ``entries`` dict by
#: ``r`` gives.  The insertion number is unique, so items never compare labels.
_Item = Tuple[int, str, int, Label]


class TopicDatabase:
    """Per-topic supervisor state: the label → subscriber map, its ring order
    and the round-robin pointer used by the periodic Timeout.

    ``entries`` is a read-only view; every write goes through :meth:`put`,
    :meth:`remove` or :meth:`clear`, which keep two indexes in step with it:
    the entries that hold a subscriber as a bisect-maintained list in ring
    order (a configuration is one bisect plus two neighbours, Theorem 7's
    constant join work) and ``subscriber → labels`` (``label_for`` and the
    duplicate checks are lookups).  All four corruption conditions of
    Section 3.1 — ``None`` references, one subscriber under several labels,
    holes, out-of-range / non-canonical / invalid labels — stay representable.
    """

    def __init__(self, entries: Optional[Mapping[Label, Optional[NodeRef]]] = None,
                 next_index: int = 0) -> None:
        self._entries: Dict[Label, Optional[NodeRef]] = {}
        self.entries: Mapping[Label, Optional[NodeRef]] = MappingProxyType(self._entries)
        self.next_index = next_index
        self._inserted = 0
        self._item: Dict[Label, _Item] = {}
        self._order: List[_Item] = []
        self._labels_of: Dict[Optional[NodeRef], List[Label]] = {}
        self._missing: Optional[List[Label]] = None  # missing_labels(), until a write
        for label, ref in (entries or {}).items():
            self.put(label, ref)

    # ----------------------------------------------------------------- writes
    def put(self, label: Label, ref: Optional[NodeRef]) -> None:
        """``entries[label] = ref``.  Overwriting keeps the label's place in
        the order, as it keeps its place in the dict."""
        self._missing = None
        if label in self._entries:
            self._unlink(label)
        else:
            self._inserted += 1
            self._item[label] = ((0, ring_key(label), self._inserted, label)
                                 if is_valid_label(label) else (1, "", self._inserted, label))
        self._entries[label] = ref
        self._labels_of.setdefault(ref, []).append(label)
        if ref is not None:
            insort(self._order, self._item[label])

    def remove(self, label: Label) -> None:
        """``del entries[label]`` (``KeyError`` if absent)."""
        self._unlink(label)
        del self._entries[label], self._item[label]
        self._missing = None

    def clear(self) -> None:
        for index in (self._entries, self._item, self._order, self._labels_of):
            index.clear()
        self._missing = None

    def _unlink(self, label: Label) -> None:
        ref = self._entries[label]
        owned = self._labels_of[ref]
        owned.remove(label)
        if not owned:
            del self._labels_of[ref]
        if ref is not None:
            del self._order[bisect_left(self._order, self._item[label])]

    # ------------------------------------------------------------------ views
    @property
    def n(self) -> int:
        return len(self._entries)

    def members(self) -> List[NodeRef]:
        return [ref for ref in self._entries.values() if ref is not None]

    def label_for(self, node: NodeRef) -> Optional[Label]:
        """The label ``node`` holds (the earliest inserted, if several)."""
        owned = self._labels_of.get(node)
        return min(owned, key=lambda label: self._item[label][2]) if owned else None

    def configuration_for(self, label: Label) -> Tuple[Optional[Entry], Optional[Entry]]:
        """(pred, succ) of the entry holding ``label`` on the cyclic ring
        induced by the database ordering.  ``None`` values are returned for a
        single-entry database."""
        order = self._order
        if len(order) <= 1:
            return None, None
        item = self._item[label]
        pos = bisect_left(order, item)
        if pos == len(order) or order[pos] is not item:
            raise ValueError(f"{label!r} holds no subscriber")
        pred, succ = order[pos - 1][3], order[(pos + 1) % len(order)][3]
        return (pred, self._entries[pred]), (succ, self._entries[succ])

    # ----------------------------------------------------------------- repair
    def missing_labels(self) -> List[Label]:
        """The holes: labels of ``l(0), ..., l(n-1)`` the database lacks —
        scanned once per write, not once per Timeout or oracle check."""
        if self._missing is None:
            self._missing = [label for label in map(label_of, range(len(self._entries)))
                             if label not in self._entries]
        return self._missing

    def check_multiple_copies(self, node: NodeRef) -> None:
        """Remove duplicate tuples for ``node``, keeping the lowest label
        (Algorithm 3, CheckMultipleCopies)."""
        owned = self._labels_of.get(node, ())
        if len(owned) > 1:
            for label in sorted(owned, key=_label_sort_key)[1:]:
                self.remove(label)

    def repair_labels(self, crashed: Optional[List[NodeRef]] = None) -> None:
        """CheckLabels (Algorithm 3) extended with crash removal (Section 3.3).

        Restores the invariant that the database contains exactly the labels
        ``l(0), ..., l(n-1)``, each held by a distinct live subscriber.  On an
        uncorrupted, crash-free database this is O(1) and no sort: the scan
        for holes runs once after each write, not once per call.
        """
        # (i) drop tuples without a subscriber, and crashed subscribers.
        for ref in (None, *(crashed or ())):
            for label in list(self._labels_of.get(ref, ())):
                self.remove(label)
        # (ii) drop duplicate subscribers (keep lowest label per subscriber).
        if len(self._labels_of) != len(self._entries):
            for ref in [ref for ref, owned in self._labels_of.items() if len(owned) > 1]:
                self.check_multiple_copies(ref)
        # (iii)/(iv) move out-of-range labels into the holes 0..n-1.
        missing = self.missing_labels()
        if missing:
            wanted = set(map(label_of, range(len(self._entries))))
            extras = sorted((label for label in self._entries if label not in wanted),
                            key=_label_sort_key, reverse=True)
            for hole, extra in zip(missing, extras):
                ref = self._entries[extra]
                self.remove(extra)
                self.put(hole, ref)

    def next_label(self) -> Label:
        """The label the next joining subscriber receives: ``l(n)``."""
        return label_of(self.n)

    def round_robin_label(self) -> Optional[Label]:
        """Advance the round-robin pointer and return the label to refresh."""
        if self.n == 0:
            return None
        self.next_index = (self.next_index + 1) % self.n
        return label_of(self.next_index)


def _is_address(node: object) -> bool:
    """False for a ``node`` no subscriber can have: ``None`` or an unhashable
    (forged list/dict) ref.  A request naming one comes from a corrupted
    channel (Theorem 8) and is ignored — the network's rule for such a
    ``dest``: an address that does not exist."""
    try:
        hash(node)
    except TypeError:
        return False
    return node is not None


def _label_sort_key(label: Label):
    """Sort canonical labels by join index; non-canonical (corrupted) labels
    sort after all canonical ones (so repairs reassign them first)."""
    if is_canonical_label(label):
        return (0, index_of(label))
    return (1, label)


class Supervisor(ProtocolNode):
    """Protocol node implementing Algorithm 3 for every topic."""

    def __init__(self, node_id: NodeRef, params: Optional[ProtocolParams] = None) -> None:
        super().__init__(node_id)
        self.params = params or ProtocolParams()
        self.databases: Dict[str, TopicDatabase] = {}
        #: counts of configuration-bearing messages sent, for Theorem 7 checks
        self.config_messages_sent = 0
        #: subscribe/unsubscribe operations handled and the messages sent while
        #: handling them (the quantity bounded by Theorem 7)
        self.ops_handled = 0
        self.op_response_messages = 0

    # ------------------------------------------------------------------ state
    def database(self, topic: Optional[str] = None) -> TopicDatabase:
        topic = topic or self.params.default_topic
        database = self.databases.get(topic)
        if database is None:  # built once, on the first ask for the topic
            database = self.databases[topic] = TopicDatabase()
        return database

    def topics(self) -> List[str]:
        return sorted(self.databases)

    # --------------------------------------------------------------- timeout
    def on_timeout(self) -> None:
        """Repair every database and refresh one subscriber per topic."""
        for topic, db in self.databases.items():
            db.repair_labels(crashed=self._suspected(db.members()))
            label = db.round_robin_label()
            if label is None:
                continue
            ref = db.entries.get(label)
            if ref is None:
                continue
            self._send_configuration(ref, label, db, topic)

    def failure_suspects(self, node: NodeRef) -> bool:
        """True if the supervisor's failure detector suspects ``node``.

        Requests from (or on behalf of) suspected subscribers are ignored so
        that references to crashed nodes are never re-integrated (Section 3.3);
        a ``node`` that cannot be an address, names no node at all or names a
        supervisor (never a subscriber, so the request is forged) is suspected
        at once.  The Timeout's eviction asks it too (:meth:`_suspected`).
        """
        return bool(self._suspected((node,)))

    def _suspected(self, refs: Sequence[NodeRef]) -> List[NodeRef]:
        """The ``refs`` :meth:`failure_suspects` holds for, in order: the
        detector's rule (:meth:`~repro.sim.failure.FailureDetector.suspects`:
        crashed ``detection_lag`` ago, or no node at all), or a supervisor.
        One O(1) call per ref; the clock and the node table are read once."""
        sim = self._sim
        if sim is None:
            return [ref for ref in refs if not _is_address(ref)]
        suspects, nodes, now = sim.failure_detector.suspects, sim.nodes, sim.now
        # ``suspects`` holds for an unhashable ref first, so ``get`` never sees one
        return [ref for ref in refs
                if suspects(ref, now) or isinstance(nodes.get(ref), Supervisor)]

    # ---------------------------------------------------------------- actions
    def _request_topic(self, topic: object) -> Optional[str]:
        """The topic a request names: ``None``/``""`` mean the default topic,
        and a ``topic`` that is not a string at all is a forged message
        (``None`` — the request is dropped, the subscriber's rule for it):
        it must neither be hashed nor become a key of :attr:`databases`."""
        if topic is not None and not isinstance(topic, str):
            return None
        return topic or self.params.default_topic

    def on_Subscribe(self, /, node=None, topic=None, **_) -> None:
        """Integrate a new subscriber (Section 4.1): insert ``(l(n), node)``
        and send the node its configuration."""
        topic = self._request_topic(topic)
        if topic is None or self.failure_suspects(node):
            return
        db = self.database(topic)
        db.check_multiple_copies(node)
        existing = db.label_for(node)
        before_sent = self.config_messages_sent
        if existing is not None:
            self._send_configuration(node, existing, db, topic)
        else:
            label = db.next_label()
            db.put(label, node)
            self._send_configuration(node, label, db, topic)
        self.ops_handled += 1
        self.op_response_messages += self.config_messages_sent - before_sent

    def on_Unsubscribe(self, /, node=None, topic=None, **_) -> None:
        """Remove a subscriber (Section 4.1): the holder of the last label
        ``l(n-1)`` takes over the departing subscriber's label, and the
        departing subscriber is granted permission to drop its connections.
        The failure detector is not asked — the permission is granted to any
        ``node`` that can be an address; one that cannot is ignored."""
        topic = self._request_topic(topic)
        if topic is None or not _is_address(node):
            return
        db = self.database(topic)
        db.check_multiple_copies(node)
        before_sent = self.config_messages_sent
        label = db.label_for(node)
        if label is not None:
            n = db.n
            last_label = label_of(n - 1)
            if n > 1 and label != last_label and last_label in db.entries:  # a hole: Section 3.1
                mover = db.entries[last_label]
                db.remove(last_label)
                db.remove(label)
                if mover is not None:
                    db.put(label, mover)
                    pred, succ = db.configuration_for(label)
                    self._send_set_data(mover, pred, label, succ, topic)
            else:
                db.remove(label)
        # Permission for the departing subscriber to clear its state.
        self._send_set_data(node, None, None, None, topic)
        self.ops_handled += 1
        self.op_response_messages += self.config_messages_sent - before_sent

    def on_GetConfiguration(self, /, node=None, topic=None, **_) -> None:
        """Send ``node`` its configuration.

        If ``node`` is unknown, either integrate it (paper prose,
        ``integrate_unknown_requesters=True``) or reply with an empty
        configuration (Algorithm 3 pseudocode), which makes the subscriber
        clear its label and re-subscribe on its next Timeout.
        """
        topic = self._request_topic(topic)
        if topic is None or self.failure_suspects(node):
            return
        db = self.database(topic)
        db.check_multiple_copies(node)
        label = db.label_for(node)
        if label is None:
            if self.params.integrate_unknown_requesters:
                self.on_Subscribe(node, topic)
            else:
                self._send_set_data(node, None, None, None, topic)
            return
        self._send_configuration(node, label, db, topic)

    # ----------------------------------------------------------------- helpers
    def _send_configuration(self, node: NodeRef, label: Label, db: TopicDatabase,
                            topic: str) -> None:
        pred, succ = db.configuration_for(label)
        self._send_set_data(node, pred, label, succ, topic)

    def _send_set_data(self, node: NodeRef, pred: Optional[Entry], label: Optional[Label],
                       succ: Optional[Entry], topic: str) -> None:
        self.config_messages_sent += 1
        self.send(node, msg.SET_DATA, topic=topic,
                  pred=tuple(pred) if pred else None,
                  label=label,
                  succ=tuple(succ) if succ else None)
