"""Legitimate-state predicates and convergence measurement helpers.

The paper's notion of a legitimate state for ``BuildSR`` (Theorems 8/13)
requires, for a topic with member set ``M`` of size ``n``:

* the supervisor's database is uncorrupted and contains exactly the members
  of ``M`` under the labels ``l(0), ..., l(n-1)``;
* every member stores its correct label and its correct ring neighbours
  (the wrap-around edge being held in ``ring`` by the minimum and maximum
  nodes);
* every member's shortcut set contains exactly the locally computable
  shortcut labels, each mapped to the correct member.

For the publication layer (Theorems 17/23) the legitimate state additionally
requires every member's Patricia trie to hold the same publication set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.core.labels import Label
from repro.core.skip_ring import SkipRingTopology
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor
from repro.sim.node import NodeRef


@dataclass
class LegitimacyReport:
    """Break-down of which legitimacy conditions currently hold."""

    topic: str
    n: int
    database_ok: bool = False
    labels_ok: bool = False
    ring_ok: bool = False
    shortcuts_ok: bool = False
    problems: List[str] = field(default_factory=list)

    @property
    def legitimate(self) -> bool:
        return self.database_ok and self.labels_ok and self.ring_ok and self.shortcuts_ok

    def add_problem(self, text: str, *args: object) -> None:
        """Keep ``text.format(*args)`` — formatted only if it is among the first 50."""
        if len(self.problems) < 50:
            self.problems.append(text.format(*args) if args else text)


#: One join index of SR(n): label, left/right/ring indices, shortcut (label, index) pairs.
_Row = Tuple[Label, int, int, int, Tuple[Tuple[Label, int], ...]]


@lru_cache(maxsize=8)  # a sharded system checks one n per topic
def _ideal_state(n: int) -> Tuple[_Row, ...]:
    """SR(n)'s legitimate state per join index, derived once per ``n``; a
    neighbour that is absent is index ``n``, which the oracle maps to ``None``."""
    topo = SkipRingTopology(n)
    rows = []
    for index in range(n):
        spec = topo.expected_subscriber_state(index)
        left, right, ring = (n if spec[side] is None else spec[side]
                             for side in ("left", "right", "ring"))
        rows.append((spec["label"], left, right, ring, tuple(spec["shortcuts"].items())))
    return tuple(rows)


def ring_legitimate(supervisor: Supervisor, subscribers: Dict[NodeRef, Subscriber],
                    members: List[NodeRef], topic: str) -> LegitimacyReport:
    """Full legitimacy check of the overlay for one topic."""
    report = LegitimacyReport(topic=topic, n=len(members))
    # database(), not databases.get(): created here at t = 0, it fixes the Timeout's topic order.
    db = supervisor.database(topic)

    report.database_ok = supervisor.is_database_legitimate(members, topic)
    if not report.database_ok:
        report.add_problem("supervisor database corrupted or membership mismatch")
        return report

    n = len(members)
    if n == 0:
        report.labels_ok = report.ring_ok = report.shortcuts_ok = True
        return report

    # An uncorrupted database holds exactly l(0..n-1): join index -> subscriber, n -> None.
    rows = _ideal_state(n)
    refs: List[Optional[NodeRef]] = [db.entries[row[0]] for row in rows] + [None]
    labels_ok = ring_ok = shortcuts_ok = True
    for ref, (expected_label, left, right, ring, shortcuts) in zip(refs, rows):
        subscriber = subscribers.get(ref)
        if subscriber is None or subscriber.crashed:
            report.add_problem("database points to missing subscriber {}", ref)
            labels_ok = ring_ok = shortcuts_ok = False
            break
        view = subscriber.view(topic, create=False)
        if view is None or view.label != expected_label:
            labels_ok = False
            report.add_problem("subscriber {} has label {!r}, expected {!r}",
                               ref, getattr(view, "label", None), expected_label)
            continue
        actual = (view.left and view.left.ref,  # a Neighbor is a 2-tuple, never falsy
                  view.right and view.right.ref, view.ring and view.ring.ref)
        expected = (refs[left], refs[right], refs[ring])
        if actual != expected:
            ring_ok = False
            report.add_problem("subscriber {}: ring neighbours (L={}, R={}, W={}) "
                               "expected (L={}, R={}, W={})", ref, *actual, *expected)
        expected_shortcuts = {label: refs[index] for label, index in shortcuts}
        if view.shortcuts != expected_shortcuts:
            shortcuts_ok = False
            report.add_problem("subscriber {}: shortcuts {} expected {}",
                               ref, view.shortcuts, expected_shortcuts)

    report.labels_ok, report.ring_ok, report.shortcuts_ok = labels_ok, ring_ok, shortcuts_ok
    return report


def publications_converged(subscribers: Dict[NodeRef, Subscriber], members: List[NodeRef],
                           topic: str, expected_keys: Optional[Set[str]] = None) -> bool:
    """True if every member's trie holds the same publication set (and, if
    given, at least ``expected_keys``)."""
    key_sets: List[AbstractSet[str]] = []
    for ref in members:
        subscriber = subscribers.get(ref)
        if subscriber is None:
            return False
        view = subscriber.view(topic, create=False)
        key_sets.append(view.trie.key_set() if view is not None else set())
    first = key_sets[0] if key_sets else set()
    return (all(keys == first for keys in key_sets[1:])
            and (expected_keys is None or expected_keys <= first))


def edge_set_signature(edges: Set[Tuple[int, int]]) -> str:
    """Stable hash of an undirected edge set, used by the closure experiment
    (E5) to detect any change of the explicit topology over time."""
    canonical = ";".join(f"{u}-{v}" for u, v in sorted(edges))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()
