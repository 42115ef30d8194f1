"""The simulator's event queue: a bucketed timing wheel.

The event volume of a run is dominated by the periodic ``Timeout`` storm (one
event per node per period) and one delivery per message, so the cost of a
push and a pop decides the engine's speed.  :class:`TimeoutWheelScheduler`
appends events (O(1)) to coarse time buckets of one fixed width
(:func:`auto_bucket_width`) and sorts each bucket once, by time alone, when
the clock reaches it — a batch ``list.sort`` on an almost-sorted bucket is
substantially cheaper than ~``log n`` sift operations per event.  The engine
inlines its push.

Events come out in ascending ``(time, seq)`` order, where ``seq`` is the
monotonically increasing submission counter assigned by the simulator:
within a bucket events are sorted by that key, and buckets partition the time
axis.  That is a binary heap's pop order, which the tests check against a
``heapq`` reference.

**The drain walks the current bucket.**  The engine does not pop event by
event (only the per-event reference it is tested against does:
``reference_step`` in ``tests/conftest.py``): it iterates ``_current``, the
bucket the clock has reached, in place, and deletes the prefix it ran when it
stops (see
:meth:`~repro.sim.engine.Simulator.run_until_time`).  A push due in that
bucket is inserted at its ``(time, seq)`` place, which lies after the running
event (every schedulable time is ``>= now`` and a fresh ``seq`` sorts last),
so the walk reaches it in order.  The bucket is the one ordered container of
due events: running it costs no per-event queue traffic.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

#: The wheel's bucket sort key: an event's timestamp.
_TIME_KEY = itemgetter(0)

#: One scheduled event: (time, seq, kind, payload).  ``seq`` is unique, so the
#: pair (time, seq) is a total order and kind/payload never get compared —
#: which also lets the engine's message-delivery records (9-tuples whose first
#: three positions follow this layout; see :mod:`repro.sim.network`) mix
#: freely with plain 4-tuple events in one queue.
Event = Tuple[float, int, int, Any]

class TimeoutWheelScheduler:
    """Bucketed timing wheel emitting events in ascending ``(time, seq)``.

    Events are hashed by ``floor(time / bucket_width)`` into buckets.  Future
    buckets are plain lists receiving O(1) appends; when the wheel advances to
    a bucket it is sorted once into ascending ``(time, seq)`` order, which the
    engine's drain walks front to back.  Late arrivals into the *current*
    bucket (a message sent with a delay smaller than the bucket width, a
    callback or injection due now) are placed by binary search, preserving
    order.

    One precondition: pushes into a *future* bucket arrive in ascending
    ``seq``.  The engine builds every event around a freshly drawn ``seq``
    and pushes it at once, so it holds by construction.  Then a stable sort
    by time alone — a float-specialised ``list.sort``, several times faster
    than comparing event tuples — yields the exact ``(time, seq)`` order.

    A small auxiliary heap of bucket indices finds the next non-empty bucket
    without scanning empty ones, so sparse schedules (e.g. a far-future crash)
    cost nothing.

    The wheel keeps no event count, so a push — and the engine's inlined
    pushes — touch nothing but the buckets.  Emptiness is :meth:`next_time`
    returning ``None``; the tests' per-event reference pops and counts from
    the test side (``tests/conftest.py``: ``pop_event``, ``queued_events``).
    """

    __slots__ = ("bucket_width", "_inv_width", "_buckets", "_bucket_heap",
                 "_current", "_current_index")

    def __init__(self, bucket_width: float = 0.25) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = bucket_width
        #: reciprocal so ``push`` multiplies instead of divides.  The mapping
        #: ``t -> int(t * inv)`` differs from ``int(t / w)`` by at most one
        #: bucket on boundary values, but it is monotone in ``t`` and applied
        #: consistently, so the bucket partition still respects time order.
        self._inv_width = 1.0 / bucket_width
        self._buckets: Dict[int, List[Event]] = {}
        self._bucket_heap: List[int] = []
        #: the bucket currently being drained, sorted ascending; the engine's
        #: drain iterates it in place
        self._current: List[Event] = []
        #: index of the bucket being drained; -1 (smaller than any index of a
        #: non-negative timestamp) while no bucket is active
        self._current_index: int = -1

    # Events are plain tuples and ``seq`` (position 1) is unique, so tuple
    # comparison decides on (time, seq) and never touches kind/payload; the
    # late insert's ``insort`` therefore needs no key function.
    def push(self, event: Event) -> None:
        index = int(event[0] * self._inv_width)
        if index <= self._current_index:
            self._insert_late(event)
            return
        try:
            self._buckets[index].append(event)
        except KeyError:
            self._buckets[index] = [event]
            heapq.heappush(self._bucket_heap, index)

    def _insert_late(self, event: Event) -> None:
        """Insert an event that lands in the bucket being drained (e.g. a
        message sent with a delay smaller than the bucket width) at its
        (time, seq) place."""
        insort(self._current, event)

    def _advance(self) -> None:
        """Make ``self._current`` hold the next non-empty bucket, ascending.

        When every bucket is drained the current index is deliberately left
        at its last value: bucket indices only ever advance (pushes land in
        buckets strictly above the current index), so routing a later push at
        or below the stale index through ``_insert_late`` keeps the global
        ``(time, seq)`` order — any event still in a future bucket maps to a
        strictly larger index and therefore a strictly later timestamp.
        """
        while not self._current:
            if not self._bucket_heap:
                return
            index = heapq.heappop(self._bucket_heap)
            bucket = self._buckets.pop(index)
            # stable by time: (time, seq) order under the class's
            # seq-ascending precondition
            bucket.sort(key=_TIME_KEY)
            self._current = bucket
            self._current_index = index

    def next_time(self) -> Optional[float]:
        current = self._current
        if not current:
            self._advance()
            current = self._current
            if not current:
                return None
        return current[0][0]


def auto_bucket_width(timeout_period: float = 1.0, min_delay: float = 0.1,
                      max_delay: float = 1.0, timeout_jitter: float = 0.2) -> float:
    """Derive a timeout-wheel bucket width from the simulation's time scales.

    The event mix is dominated by two populations: periodic ``Timeout`` events
    spread over ``timeout_period * (1 ± jitter)`` and message deliveries spread
    over ``[min_delay, max_delay]``.  A good bucket collects a sorting-friendly
    slice of both, so the width is a quarter of the *shorter* of the two
    horizons (a fraction of the period alone degenerates to one-event buckets
    when delays are much shorter than the period, and to a single giant
    bucket in delay-dominated runs).  This is the one sizing rule: the engine
    applies it when it builds its wheel and never changes the width after.

    Bucket width never affects event *order* (the wheel's ``(time, seq)``
    contract is width-independent), only the append/sort balance, so any
    width keeps runs byte-identical per seed.

    The width is additionally clamped to ``min_delay`` when that does not
    degenerate the wheel (floor: 1/32 of the shorter horizon): a width no
    larger than the minimum message delay guarantees no undisturbed send
    lands in the bucket currently being drained (``floor((t + d) / w) >
    floor(t / w)`` whenever ``d >= w``), which keeps the O(bucket)
    late-insertion path off the hot loop and per-bucket sorts smaller.
    """
    timeout_horizon = timeout_period * (1.0 + timeout_jitter)
    delay_horizon = max_delay if max_delay > 0 else timeout_horizon
    horizon = min(timeout_horizon, delay_horizon)
    width = horizon / 4.0
    if 0.0 < min_delay < width:
        width = max(min_delay, horizon / 32.0)
    return max(width, 1e-9)

