"""Drain edge cases: the engine walking the wheel's current bucket, and the
wheel against its ``heapq`` reference (the engine's wheel-vs-``heapq`` event
streams are ``tests/test_engine_scale.py``)."""

from __future__ import annotations

import math
import random

import pytest
from conftest import HeapQueue, pop_event, queued_events

from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.scheduler import TimeoutWheelScheduler


def _event(time, seq, payload="p"):
    """A minimal 4-tuple scheduler event (time, seq, kind, payload)."""
    return (time, seq, 0, payload)


def _after(time):
    return math.nextafter(time, math.inf)


def _last_time_of_bucket(scheduler, index):
    """The largest float the wheel maps into bucket ``index``."""
    inv = scheduler._inv_width
    time = (index + 1) * scheduler.bucket_width
    while int(time * inv) > index:
        time = math.nextafter(time, -math.inf)
    while int(_after(time) * inv) == index:
        time = _after(time)
    return time


def _logging_sim():
    """A simulator with no nodes and ``at(time, name)``: a callback that logs
    ``(now, name)`` when it runs."""
    sim = Simulator(SimulatorConfig(seed=1))
    log = []

    def at(time, name):
        sim.call_at(time, lambda: log.append((sim.now, name)))
    return sim, log, at


class TestBucketDrainEdges:
    def test_an_empty_wheel_drains_nothing(self):
        heap, wheel = HeapQueue(), TimeoutWheelScheduler(bucket_width=0.25)
        assert heap.next_time() is None and wheel.next_time() is None
        assert len(heap) == len(queued_events(wheel)) == 0
        sim = Simulator(SimulatorConfig(seed=1))
        sim.run_until_time(5.0)
        assert sim.now == 5.0 and sim.steps_executed == 0

    @pytest.mark.parametrize("where", ["bucket-boundary", "mid-bucket"])
    def test_an_event_at_the_deadline_runs_and_one_after_stays(self, where):
        """The deadline is inclusive, whether the next event lies in a later
        bucket (the walk ends with its bucket) or in the walked one (the walk
        stops and keeps the rest queued)."""
        sim, log, at = _logging_sim()
        scheduler = sim.scheduler
        index = 7
        deadline = (_last_time_of_bucket(scheduler, index) if where == "bucket-boundary"
                    else (index + 0.5) * scheduler.bucket_width)
        beyond = _after(deadline)
        same_bucket = int(beyond * scheduler._inv_width) == index
        assert same_bucket == (where == "mid-bucket")
        at(beyond, "beyond")
        at(deadline, "at")
        at(index * scheduler.bucket_width, "early")
        at(deadline, "at, later seq")
        sim.run_until_time(deadline)
        assert log == [(index * scheduler.bucket_width, "early"), (deadline, "at"),
                       (deadline, "at, later seq")]
        assert sim.now == deadline and sim.steps_executed == 3
        assert scheduler.next_time() == beyond and len(queued_events(scheduler)) == 1
        sim.run_until_time(beyond)
        assert log[3:] == [(beyond, "beyond")] and sim.steps_executed == 4

    def test_a_stopped_bucket_keeps_its_rest_and_takes_pushes_before_it(self):
        """After a mid-bucket stop, an event pushed between runs for a time
        before the kept ones runs before them."""
        sim, log, at = _logging_sim()
        width = sim.scheduler.bucket_width
        for k in range(1, 5):
            at(10 * width + k * width / 5, f"e{k}")
        sim.run_until_time(10 * width + 2.5 * width / 5)
        assert [name for _, name in log] == ["e1", "e2"]
        assert len(sim.scheduler._current) == 2  # the walk stopped mid-bucket
        at(sim.now, "now")
        at(10 * width + 3.5 * width / 5, "between")
        sim.run_until_time(11 * width)
        assert [name for _, name in log] == ["e1", "e2", "now", "e3", "between", "e4"]
        assert sim.steps_executed == 6 and sim.scheduler.next_time() is None

    def test_wheel_rollover_at_auto_sized_width(self):
        """Events spanning many buckets — exact bucket-boundary timestamps
        included — run in (time, seq) order through deadlines not aligned to
        bucket edges, at the width the simulator picks."""
        sim, log, at = _logging_sim()
        width = sim.scheduler.bucket_width
        rng = random.Random(99)
        expected = []
        for seq in range(500):
            if seq % 10 == 0:
                time = (seq // 10) * width  # exactly on a bucket boundary
            else:
                time = rng.uniform(0.0, 40 * width)
            at(time, seq)
            expected.append((time, seq))
        deadline = 0.0
        while sim.scheduler.next_time() is not None:
            deadline += 3.7 * width
            sim.run_until_time(deadline)
        assert log == sorted(expected)
        assert sim.steps_executed == 500

    @pytest.mark.parametrize("width", [0.25, 0.01])
    def test_pops_match_heapq_with_pushes_into_the_current_bucket(self, width):
        """Randomized parity: between pops, pushes land in the bucket being
        popped (ties with the popped time included) and in later ones."""
        rng = random.Random(3)
        wheel, heap = TimeoutWheelScheduler(bucket_width=width), HeapQueue()
        seq = 0

        def push(time):
            nonlocal seq
            for scheduler in (wheel, heap):
                scheduler.push(_event(time, seq))
            seq += 1

        # coarse timestamps force plenty of equal-time collisions
        for _ in range(1_000):
            push(round(rng.uniform(0, 5), 1))
        in_bucket = popped = 0
        while len(heap):
            assert wheel.next_time() == heap.next_time()
            event = pop_event(wheel)
            assert event == heap.pop()
            popped += 1
            if seq < 3_000:
                for _ in range(rng.randrange(3)):
                    time = event[0] + rng.choice((0.0, rng.uniform(0, 2 * width)))
                    in_bucket += int(time * wheel._inv_width) <= wheel._current_index
                    push(time)
        assert len(queued_events(wheel)) == 0 and popped == seq
        assert in_bucket > 300
