"""Legitimate-state predicates and convergence measurement helpers.

The paper's notion of a legitimate state for ``BuildSR`` (Theorems 8/13)
requires, for a topic with live member set ``M`` of size ``n``, and the
oracle names each failed condition as a :class:`Finding`:

* the supervisor's database holds every member of ``M``
  (``database-missing``), no entry whose reference is ``None``, outside
  ``M`` or a second label for one reference (``database-ghost``), and every
  label ``l(0), ..., l(n-1)`` (``database-label``);
* every member stores its correct label (``label``) and its correct ring
  neighbours (``ring-left``, ``ring-right``, and ``ring-wrap``: the
  wrap-around edge held in ``ring`` by the minimum and maximum nodes);
* every member's shortcut set maps exactly the locally computable shortcut
  labels to the correct members (``shortcut@<label>``, one per label).

For the publication layer (Theorems 17/23) the legitimate state additionally
requires every member's Patricia trie to hold the same publication set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import AbstractSet, Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.labels import Label
from repro.core.skip_ring import SkipRingTopology
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor, TopicDatabase
from repro.sim.node import NodeRef


class Finding(NamedTuple):
    """One failed condition at one node (``None``: a hole, or an entry without
    a ref); ``None`` as ``expected``/``actual`` is an absent entry or neighbour."""

    node: Optional[NodeRef]
    condition: str
    expected: Any
    actual: Any


@dataclass
class LegitimacyReport:
    """The failed conditions of one topic; legitimate means none failed."""

    topic: str
    n: int
    findings: List[Finding] = field(default_factory=list)

    @property
    def legitimate(self) -> bool:
        return not self.findings

    @property
    def problems(self) -> List[str]:
        """The first 50 findings, rendered."""
        return [f"{f.node}: {f.condition} expected {f.expected!r}, actual {f.actual!r}"
                for f in self.findings[:50]]

    def failed(self) -> Set[str]:
        """The failed condition kinds (``shortcut`` for every ``shortcut@<label>``)."""
        return {finding.condition.partition("@")[0] for finding in self.findings}


#: One join index of SR(n): label, left/right/ring indices, shortcut (label, index) pairs.
_Row = Tuple[Label, int, int, int, Tuple[Tuple[Label, int], ...]]

#: The conditions of a row's label and ring indices, in the row's order.
_NODE_CONDITIONS = ("label", "ring-left", "ring-right", "ring-wrap")


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
    """Every failed legitimacy condition of ``topic``'s overlay, its live
    ``members`` given; read-only, so a check creates no database.

    The database conditions are checked first, comparing refs by hash and
    equality, never by order (a forged ``Subscribe`` can store a ghost
    ``"x"`` next to int refs).  SR(n)'s expected state is indexed by the
    database's labels, so the node conditions are evaluated only when no
    database condition fails; then each is evaluated for every member,
    independently of the others.
    """
    db = supervisor.databases.get(topic) or TopicDatabase()
    live, held, ghosts = set(members), set(), []
    for label, ref in db.entries.items():
        if ref in held or ref not in live:
            ghosts.append(Finding(ref, "database-ghost", None, label))
        held.add(ref)
    findings = [Finding(ref, "database-missing", None, None) for ref in members if ref not in held]
    findings += ghosts
    findings += [Finding(None, "database-label", label, None) for label in db.missing_labels()]
    report = LegitimacyReport(topic, len(members), findings)
    if findings or not members:
        return report

    # The database holds exactly l(0..n-1): join index -> subscriber, n -> None.
    rows = _ideal_state(len(members))
    refs: List[Optional[NodeRef]] = [db.entries[row[0]] for row in rows] + [None]
    for ref, (label, left, right, ring, shortcuts) in zip(refs, rows):
        subscriber = subscribers.get(ref)
        view = None if subscriber is None or subscriber.crashed else subscriber.views.get(topic)
        if view is None:
            actual, actual_sc = (None, None, None, None), {}
        else:
            actual = (view.label, view.left and view.left.ref,  # a Neighbor is never falsy
                      view.right and view.right.ref, view.ring and view.ring.ref)
            actual_sc = view.shortcuts
        expected = (label, refs[left], refs[right], refs[ring])
        if actual != expected:
            findings += [Finding(ref, condition, want, got) for condition, want, got
                         in zip(_NODE_CONDITIONS, expected, actual) if want != got]
        expected_sc = {key: refs[index] for key, index in shortcuts}
        if actual_sc != expected_sc:  # a key may be absent on either side
            findings += [Finding(ref, f"shortcut@{key}", expected_sc.get(key), actual_sc.get(key))
                         for key in {**expected_sc, **actual_sc}
                         if key not in actual_sc or key not in expected_sc
                         or actual_sc[key] != expected_sc[key]]
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
