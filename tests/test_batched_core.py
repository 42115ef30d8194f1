"""Block-drain edge cases, on the wheel and its ``heapq`` reference (the
engine's wheel-vs-``heapq`` event streams are ``tests/test_engine_scale.py``)."""

from __future__ import annotations

import random

from conftest import HeapQueue

from repro.sim.scheduler import TimeoutWheelScheduler, auto_bucket_width


def _event(time, seq, payload="p"):
    """A minimal 4-tuple scheduler event (time, seq, kind, payload)."""
    return (time, seq, 0, payload)


def _drain_block(scheduler, out, limit):
    """Full block drain below ``limit``: the wheel's ``pop_block_into``
    deliberately stops at bucket boundaries, so callers (like the engine's
    block loop) call it until it returns 0."""
    total = 0
    while True:
        got = scheduler.pop_block_into(out, limit)
        if not got:
            return total
        total += got


def _both_schedulers():
    return [HeapQueue(), TimeoutWheelScheduler(bucket_width=0.25)]


class TestBlockDrainEdges:
    def test_empty_scheduler_blocks_are_empty(self):
        for scheduler in _both_schedulers():
            out = []
            assert scheduler.pop_block_into(out, limit=10.0) == 0
            assert out == []
            assert scheduler.next_time() is None
            assert len(scheduler) == 0

    def test_block_limit_is_exclusive_on_exact_boundary(self):
        """``pop_block_into`` drains strictly below ``limit``: an event at
        exactly the window edge belongs to the *next* block (the engine's
        safety-window argument depends on this)."""
        for scheduler in _both_schedulers():
            scheduler.push(_event(1.0, 1))
            scheduler.push(_event(1.0, 2))
            scheduler.push(_event(0.999999, 0))
            out = []
            assert _drain_block(scheduler, out, limit=1.0) == 1
            assert [e[1] for e in out] == [0]
            # the boundary events surface once the window moves past them
            assert _drain_block(scheduler, out, limit=1.0 + 1e-9) == 2
            assert [e[1] for e in out] == [0, 1, 2]
            assert len(scheduler) == 0

    def test_wheel_rollover_at_auto_sized_width(self):
        """Events spanning many buckets — including exact bucket-boundary
        timestamps — drain in (time, seq) order through block pops at the
        width :func:`auto_bucket_width` actually picks."""
        width = auto_bucket_width(1.0, 0.1, 1.0, 0.2)
        wheel = TimeoutWheelScheduler(bucket_width=width)
        heap = HeapQueue()
        rng = random.Random(99)
        events = []
        for seq in range(500):
            if seq % 10 == 0:
                time = (seq // 10) * width  # exactly on a bucket boundary
            else:
                time = rng.uniform(0.0, 40 * width)
            events.append(_event(time, seq))
        for event in events:
            wheel.push(event)
            heap.push(event)
        drained_wheel, drained_heap = [], []
        limit = 0.0
        while len(wheel) or len(heap):
            limit += 3.7 * width  # windows not aligned to bucket edges
            _drain_block(wheel, drained_wheel, limit)
            _drain_block(heap, drained_heap, limit)
        assert drained_wheel == drained_heap
        assert drained_wheel == sorted(events)

