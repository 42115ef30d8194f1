"""Label algebra for the supervised skip ring (paper Section 2.1).

The supervisor assigns every subscriber a *label*: the ``x``-th subscriber to
join receives ``l(x)``, where ``l`` takes the binary representation
``(x_d ... x_0)_2`` of ``x`` (with ``d`` minimal, i.e. ``x_d`` is the leading
bit) and moves the leading bit to the units place::

    l(x) = (x_{d-1} ... x_0 x_d)

producing the sequence ``0, 1, 01, 11, 001, 011, 101, 111, 0001, ...``.

A label ``y = (y_1 ... y_d)`` is interpreted as the dyadic rational

    r(y) = sum_i y_i / 2^i  ∈ [0, 1)

which places subscribers on a ring.  The construction guarantees that the
labels handed out for ``x ∈ {2^d, ..., 2^{d+1}-1}`` fall exactly halfway
between previously used positions, so consecutive joins are spread uniformly
around the ring (the property behind Theorem 7's constant join overhead).

Labels *are* strings over ``{'0','1'}`` (wire, reports, goldens).  Ring order
is the lexicographic order of the bit string without its trailing zeros
(:func:`ring_key`): exact at any length, compared at C speed, equal exactly
when ``r`` is (``'1'`` vs ``'10'``); the subscriber's hot paths read it off
the string the same way (``label.rstrip("0")``, once per label) instead of
calling the helper at every comparison.  Distances use integers scaled to a
common bit length (:func:`closer`).  :func:`r_value` and ``Fraction`` are the
*specification* (figures, experiments, the property tests that pin the key to
it), not the implementation of any comparison.  ``ring_key`` and ``closer``
are *unchecked* — handlers test :func:`is_valid_label` once, at message
ingress; everything else raises ``ValueError`` on garbage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

#: Type alias used throughout the code base.
Label = str


def label_of(x: int) -> Label:
    """Return ``l(x)``, the label of the ``x``-th subscriber (0-based).

    >>> [label_of(i) for i in range(8)]
    ['0', '1', '01', '11', '001', '011', '101', '111']
    """
    if x < 0:
        raise ValueError("label index must be non-negative")
    if x == 0:
        return "0"
    bits = bin(x)[2:]  # leading bit first: x_d x_{d-1} ... x_0
    # Move the leading bit (always '1') to the units place.
    return bits[1:] + bits[0]


def index_of(label: Label) -> int:
    """Inverse of :func:`label_of`: the join index ``l^{-1}(label)``.

    >>> all(index_of(label_of(i)) == i for i in range(100))
    True
    """
    _validate(label)
    if label == "0":
        return 0
    if label[-1] != "1":
        raise ValueError(f"{label!r} is not in the image of l (must end in '1')")
    # label = x_{d-1} ... x_0 x_d  with x_d = 1
    return int("1" + label[:-1], 2)


def r_value(label: Label) -> Fraction:
    """Return ``r(label) = sum_i label_i / 2^i`` as an exact fraction.

    >>> r_value('101')
    Fraction(5, 8)
    """
    _validate(label)
    return Fraction(int(label, 2), 2 ** len(label))


def r_float(label: Label) -> float:
    """Floating-point convenience wrapper around :func:`r_value`."""
    return float(r_value(label))


def label_length(label: Label) -> int:
    """``|label|`` — the number of bits of the (canonical) label."""
    return len(_validate(label))


def labels_up_to(n: int) -> List[Label]:
    """Labels of the first ``n`` subscribers, ``[l(0), ..., l(n-1)]``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [label_of(i) for i in range(n)]


def ring_key(label: Label) -> str:
    """The order key (unchecked): ``r(a) < r(b)`` iff ``ring_key(a) <
    ring_key(b)``, and the keys are equal iff the ``r``-values are."""
    return label.rstrip("0")


def closer(label_a: Label, label_b: Label, origin: Label) -> bool:
    """``|r(a) − r(origin)| < |r(b) − r(origin)|`` in integers (unchecked):
    each ``r(label) · 2^bits`` for the longest length ``bits``."""
    len_a, len_b, len_o = len(label_a), len(label_b), len(origin)
    bits = max(len_a, len_b, len_o)
    at = int(origin, 2) << (bits - len_o)
    return (abs((int(label_a, 2) << (bits - len_a)) - at)
            < abs((int(label_b, 2) << (bits - len_b)) - at))


def is_valid_label(label: object) -> bool:
    """True if ``label`` is a non-empty string over {'0','1'}."""
    return isinstance(label, str) and len(label) > 0 and not label.strip("01")


def is_canonical_label(label: object) -> bool:
    """True if ``label`` could have been produced by :func:`label_of`
    (i.e. it is ``'0'`` or ends in ``'1'``)."""
    return is_valid_label(label) and (label == "0" or label[-1] == "1")


def max_level(n: int) -> int:
    """``⌈log2 n⌉`` — the highest shortcut/ring level of ``SR(n)`` (n ≥ 1).

    By convention ``max_level(1) == 1`` so a single-node system still has a
    well-defined (trivial) level structure.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return max(1, (n - 1).bit_length())


def count_labels_of_length(k: int, n: Optional[int] = None) -> int:
    """``f(k)``: number of subscribers with label length ``k``.

    With ``n`` omitted this is the full-level count used in Lemma 3
    (``f(1) = 2``, ``f(k) = 2^{k-1}`` for ``k > 1``).  With ``n`` given, the
    count is restricted to the first ``n`` labels ``l(0..n-1)``.
    """
    if k < 1:
        raise ValueError("label length must be >= 1")
    full = 2 if k == 1 else 2 ** (k - 1)
    if n is None:
        return full
    first = 0 if k == 1 else full  # lowest join index with label length k
    return max(0, min(n - first, full))


def _validate(label: object) -> Label:
    if not is_valid_label(label):
        raise ValueError(f"invalid label: {label!r}")
    return label  # type: ignore[return-value]
