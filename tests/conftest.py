"""Shared fixtures for the test suite (built through the unified API)."""

from __future__ import annotations

import heapq

import pytest

from repro import ProtocolParams, SupervisedPubSub
from repro.api import SystemSpec, build_stable, build_system
from repro.core.supervisor import Supervisor
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.network import (FAST_RECORD_KIND, REC_ACTION, REC_DEST, REC_KIND,
                                REC_SENDER)
from repro.sim.node import ProtocolNode
from repro.sim.scheduler import TimeoutWheelScheduler


def records_in_flight(sim, **match):
    """The records still in flight in ``sim`` (``REC_*``-indexed tuples), in
    scheduler order, keeping those whose ``dest``/``action``/``sender``
    equal the values given in ``match``.

    This is the paper's channel volume: the scheduler's pending records,
    minus those addressed to a crashed node (they stay queued, and the
    engine skips them when due) or to no address at all (unhashable)."""
    index = {"dest": REC_DEST, "action": REC_ACTION, "sender": REC_SENDER}

    def gone(dest):
        try:
            return dest in sim.network._crashed
        except TypeError:
            return True

    return [record for record in sim.scheduler.iter_events()
            if record[REC_KIND] == FAST_RECORD_KIND and not gone(record[REC_DEST])
            and all(record[index[key]] == value for key, value in match.items())]


class HeapQueue:
    """The ordering reference for the engine's timing wheel: a ``heapq`` of
    ``(time, seq, kind, ...)`` events behind the wheel's queue interface.
    Its pop order, ascending ``(time, seq)``, is the order the wheel must
    emit."""

    __slots__ = ("_heap",)

    def __init__(self, events=()):
        self._heap = list(events)
        heapq.heapify(self._heap)

    def push(self, event):
        heapq.heappush(self._heap, event)

    def pop(self):
        return heapq.heappop(self._heap)

    def next_time(self):
        return self._heap[0][0] if self._heap else None

    def __len__(self):
        return len(self._heap)


@pytest.fixture()
def supervised():
    """``make(ids, params=None) -> (sim, supervisor)``: a supervisor
    (id 0, no Timeout) and a bare node behind every id in ``ids`` — its
    failure detector suspects an id with no node, so a handler test names
    only ids that exist."""
    def make(ids, params: ProtocolParams | None = None):
        sim = Simulator(SimulatorConfig(seed=5))
        supervisor = sim.add_node(Supervisor(0, params=params), schedule_timeout=False)
        for node_id in ids:
            sim.add_node(ProtocolNode(node_id), schedule_timeout=False)
        return sim, supervisor
    return make


@pytest.fixture(scope="session")
def stable_system_8():
    """A converged 8-subscriber system shared by read-only tests."""
    system, subscribers = build_stable(SystemSpec(seed=11), 8)
    return system, subscribers


@pytest.fixture()
def fresh_system():
    """A factory for fresh systems (tests that mutate state)."""
    def make(n: int = 8, seed: int = 0, params: ProtocolParams | None = None):
        return build_stable(SystemSpec(seed=seed, params=params), n)
    return make


@pytest.fixture()
def empty_system():
    def make(seed: int = 0, params: ProtocolParams | None = None) -> SupervisedPubSub:
        return build_system(SystemSpec(seed=seed, params=params))
    return make


class _RecordedBucket(list):
    """A wheel bucket that logs every event removed from it, in order: the
    engine's drain deletes exactly the prefix it ran (``clear()`` after a
    whole bucket, ``del bucket[:k]`` at a deadline or an exception) and
    ``step()`` pops the head, so the log is the executed stream."""

    __slots__ = ("log",)

    def clear(self):
        self.log.extend(self)
        super().clear()

    def __delitem__(self, index):
        self.log.extend(self[index])
        super().__delitem__(index)

    def pop(self, index=-1):
        event = super().pop(index)
        self.log.append(event)
        return event


@pytest.fixture()
def wheel_stream(monkeypatch):
    """``(stream, inserted)``: the events the engine executes, in the order
    it executes them, and those pushed into the bucket being drained.

    ``TimeoutWheelScheduler._advance`` is wrapped at class level so that the
    current bucket logs what leaves it (:class:`_RecordedBucket`), and
    ``_insert_late`` so that it lists the in-bucket pushes.  The engine
    binds ``_insert_late`` when it builds the simulator, so install the
    fixture first.
    """
    stream, inserted = [], []
    advance = TimeoutWheelScheduler._advance
    insert_late = TimeoutWheelScheduler._insert_late

    def advancing(self):
        advance(self)
        if type(self._current) is not _RecordedBucket:
            self._current = _RecordedBucket(self._current)
            self._current.log = stream

    def inserting(self, event):
        inserted.append(event)
        insert_late(self, event)

    monkeypatch.setattr(TimeoutWheelScheduler, "_advance", advancing)
    monkeypatch.setattr(TimeoutWheelScheduler, "_insert_late", inserting)
    return stream, inserted


@pytest.fixture()
def pools_built(monkeypatch):
    """The worker counts of the process pools opened while the test runs,
    one entry per pool: ``run_tasks`` reads
    ``concurrent.futures.ProcessPoolExecutor`` when a pooled stream
    starts, so a counting subclass stands in for it."""
    import concurrent.futures
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return built


def assert_heapq_order(sim, stream):
    """``stream`` is ``heapq``'s pop order of every event the wheel held —
    executed or still pending — up to the clock, and nothing pending is
    due."""
    pending = list(sim.scheduler.iter_events())
    events = stream + pending
    # every seq the engine drew went into one pushed event: none was lost
    assert sorted(event[1] for event in events) == list(range(next(sim._seq)))
    assert all(event[0] > sim.now for event in pending)
    heap = HeapQueue(events)
    reference = []
    while len(heap) and heap.next_time() <= sim.now:
        reference.append(heap.pop())
    assert reference == stream
