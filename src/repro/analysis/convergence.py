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
from typing import Dict, List, Optional, Set, Tuple

from repro.core.labels import index_of, label_of
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

    def add_problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)


def ring_legitimate(supervisor: Supervisor, subscribers: Dict[NodeRef, Subscriber],
                    members: List[NodeRef], topic: str) -> LegitimacyReport:
    """Full legitimacy check of the overlay for one topic."""
    members = sorted(members)
    report = LegitimacyReport(topic=topic, n=len(members))
    db = supervisor.database(topic)

    report.database_ok = supervisor.is_database_legitimate(members, topic)
    if not report.database_ok:
        report.add_problem("supervisor database corrupted or membership mismatch")
        return report

    n = len(members)
    if n == 0:
        report.labels_ok = report.ring_ok = report.shortcuts_ok = True
        return report

    # Map ideal node index -> actual subscriber reference via the database.
    ref_of_index: Dict[int, NodeRef] = {}
    for label, ref in db.entries.items():
        assert ref is not None
        ref_of_index[index_of(label)] = ref
    topo = SkipRingTopology(n)

    labels_ok = True
    ring_ok = True
    shortcuts_ok = True
    for index in range(n):
        ref = ref_of_index[index]
        subscriber = subscribers.get(ref)
        if subscriber is None or subscriber.crashed:
            report.add_problem(f"database points to missing subscriber {ref}")
            labels_ok = ring_ok = shortcuts_ok = False
            break
        view = subscriber.view(topic, create=False)
        expected_label = label_of(index)
        if view is None or view.label != expected_label:
            labels_ok = False
            report.add_problem(f"subscriber {ref} has label "
                               f"{getattr(view, 'label', None)!r}, expected {expected_label!r}")
            continue
        spec = topo.expected_subscriber_state(index)
        expected_left = _expected_ref(spec["left"], ref_of_index)
        expected_right = _expected_ref(spec["right"], ref_of_index)
        expected_ring = _expected_ref(spec["ring"], ref_of_index)
        actual_left = view.left.ref if view.left is not None else None
        actual_right = view.right.ref if view.right is not None else None
        actual_ring = view.ring.ref if view.ring is not None else None
        if (actual_left, actual_right, actual_ring) != (expected_left, expected_right,
                                                        expected_ring):
            ring_ok = False
            report.add_problem(
                f"subscriber {ref}: ring neighbours (L={actual_left}, R={actual_right}, "
                f"W={actual_ring}) expected (L={expected_left}, R={expected_right}, "
                f"W={expected_ring})")
        expected_shortcuts = {
            lbl: ref_of_index[idx] for lbl, idx in spec["shortcuts"].items()  # type: ignore
        }
        actual_shortcuts = dict(view.shortcuts)
        if actual_shortcuts != expected_shortcuts:
            shortcuts_ok = False
            report.add_problem(
                f"subscriber {ref}: shortcuts {actual_shortcuts} expected {expected_shortcuts}")

    report.labels_ok = labels_ok
    report.ring_ok = ring_ok
    report.shortcuts_ok = shortcuts_ok
    return report


def _expected_ref(index: Optional[object], ref_of_index: Dict[int, NodeRef]) -> Optional[NodeRef]:
    if index is None:
        return None
    return ref_of_index[int(index)]  # type: ignore[arg-type]


def count_correct_labels(supervisor: Supervisor, subscribers: Dict[NodeRef, Subscriber],
                         members: List[NodeRef], topic: str) -> int:
    """How many members currently store the label the database assigns them
    (useful as a convergence progress series)."""
    db = supervisor.database(topic)
    correct = 0
    for label, ref in db.entries.items():
        if ref is None:
            continue
        subscriber = subscribers.get(ref)
        if subscriber is None:
            continue
        view = subscriber.view(topic, create=False)
        if view is not None and view.label == label:
            correct += 1
    return correct


def publications_converged(subscribers: Dict[NodeRef, Subscriber], members: List[NodeRef],
                           topic: str, expected_keys: Optional[Set[str]] = None) -> bool:
    """True if every member's trie holds the same publication set (and, if
    given, at least ``expected_keys``)."""
    key_sets: List[Set[str]] = []
    for ref in members:
        subscriber = subscribers.get(ref)
        if subscriber is None:
            return False
        view = subscriber.view(topic, create=False)
        key_sets.append(set(view.trie.keys()) if view is not None else set())
    if not key_sets:
        return expected_keys is None or not expected_keys
    first = key_sets[0]
    if any(keys != first for keys in key_sets[1:]):
        return False
    if expected_keys is not None and not expected_keys <= first:
        return False
    return True


def edge_set_signature(edges: Set[Tuple[int, int]]) -> str:
    """Stable hash of an undirected edge set, used by the closure experiment
    (E5) to detect any change of the explicit topology over time."""
    canonical = ";".join(f"{u}-{v}" for u, v in sorted(edges))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()
