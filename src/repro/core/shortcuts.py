"""Local computation of shortcut labels (paper Section 3.2.2).

A subscriber ``v`` with ``|v.label| = k`` participates in the sorted rings
``R_k, R_{k+1}, ..., R_L`` (``L = ⌈log n⌉``).  Its neighbours in ``R_L`` are
its ring neighbours; its neighbours in the coarser rings are its *shortcuts*.

The paper shows that ``v`` can compute the labels of all its shortcuts purely
locally from the labels of its two direct ring neighbours: if a ring
neighbour ``w`` has a longer label than ``v``, then ``w`` was inserted halfway
between ``v`` and some older node ``s`` with ``r(s) = 2·r(w) − r(v) (mod 1)``;
recursing on ``s`` walks outwards level by level until a label no longer than
``v``'s own is reached.

Two equivalent formulations are provided:

* :func:`shortcut_labels_from_neighbor` — the paper's recursion, and
* :func:`shortcut_labels_closed_form` — the closed form
  ``r(v) ± 2^{-i} (mod 1)`` for each level ``i`` between ``|v.label|`` and
  ``L − 1``.

Unit and property tests verify that both give the same label sets in
legitimate configurations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Set

from repro.core.labels import (
    Label,
    is_valid_label,
    label_from_r,
    label_length,
    r_value,
    scaled_r,
)


def _reflect(neighbor: Label, own: Label) -> Label:
    """The canonical label ``s`` with ``r(s) = 2·r(neighbor) − r(own) (mod 1)``,
    in integers scaled to the longer of the two (already validated) labels."""
    bits = max(len(neighbor), len(own))
    value = (2 * scaled_r(neighbor, bits) - scaled_r(own, bits)) % (1 << bits)
    return format(value, f"0{bits}b").rstrip("0") or "0"


def shortcut_labels_from_neighbor(own: Label, neighbor: Optional[Label],
                                  max_steps: int = 64) -> List[Label]:
    """Shortcut labels derived from a single ring neighbour (paper recursion).

    Starting from the ring neighbour's label, repeatedly reflect outwards
    while the produced label is *longer* than ``own``; every produced label is
    a shortcut target.  The recursion terminates as soon as a label of length
    ``<= |own|`` is produced (that final label is included, it is ``v``'s
    neighbour in ``R_{|own|}`` on this side).

    ``max_steps`` guards against corrupted neighbour labels that are absurdly
    long in adversarial initial states.
    """
    if neighbor is None or not is_valid_label(own) or not is_valid_label(neighbor):
        return []
    result: List[Label] = []
    current = neighbor
    own_len = len(own)
    for _ in range(max_steps):
        if len(current) <= own_len:
            # The neighbour itself is not longer than us: nothing to derive on
            # this side (its edge is already a ring edge).
            if current == neighbor:
                return []
            break
        current = _reflect(current, own)
        result.append(current)
        if len(current) <= own_len:
            break
    return result


def shortcut_labels(own: Label, left: Optional[Label], right: Optional[Label],
                    max_steps: int = 64) -> Set[Label]:
    """All shortcut labels of a node, derived from both ring neighbours.

    This is what the subscriber protocol recomputes on every ``Timeout`` to
    keep ``v.shortcuts`` keyed by the correct labels (Algorithm 4, line 3).
    The node's own label is never a shortcut target.
    """
    targets: Set[Label] = set()
    targets.update(shortcut_labels_from_neighbor(own, left, max_steps))
    targets.update(shortcut_labels_from_neighbor(own, right, max_steps))
    targets.discard(own)
    return targets


def shortcut_labels_closed_form(own: Label, top_level: int) -> Set[Label]:
    """Closed-form shortcut labels: neighbours at distance ``2^{-i}`` for each
    level ``i`` with ``|own| <= i < top_level``.

    ``top_level`` is ``⌈log n⌉`` (the level of the ring edges).  Labels longer
    than or equal to ``top_level`` never appear because those neighbours are
    already ring neighbours.
    """
    if not is_valid_label(own):
        return set()
    own_len = label_length(own)
    own_r = r_value(own)
    targets: Set[Label] = set()
    for level in range(own_len, top_level):
        step = Fraction(1, 2 ** level)
        for direction in (+1, -1):
            targets.add(label_from_r((own_r + direction * step) % 1))
    targets.discard(own)
    return targets

