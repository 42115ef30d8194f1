"""Shared fixtures for the test suite (built through the unified API), and
the references the library is tested against: the per-event engine
(:func:`reference_step`), ``heapq`` for the wheel's order, and the trie,
database and label oracles."""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from os.path import commonprefix  # character-wise, works on any strings

import pytest

from repro import ProtocolParams, SupervisedPubSub
from repro.api import SystemSpec, build_stable, build_system
from repro.core.supervisor import Supervisor
from repro.pubsub.hashing import leaf_hash, node_hash
from repro.pubsub.patricia import _subtree
from repro.sim.engine import _CALL, _CRASH, _TIMEOUT, Simulator, SimulatorConfig
from repro.sim.network import (FAST_RECORD_KIND, REC_ACTION, REC_DEST, REC_KIND,
                                REC_PARAMS, REC_SENDER, REC_TOPIC)
from repro.sim.node import ProtocolNode
from repro.sim.scheduler import TimeoutWheelScheduler


def pop_event(wheel):
    """``wheel``'s next event, removed — O(bucket): the per-event reference's
    pop (the engine's drain walks the bucket in place instead)."""
    if not wheel._current:
        wheel._advance()
    return wheel._current.pop(0)


def queued_events(wheel):
    """Every event queued in ``wheel``, in no global order.  From inside an
    event the walked bucket still holds the events that ran before it: the
    drain deletes them when it stops."""
    return [*wheel._current, *itertools.chain.from_iterable(wheel._buckets.values())]


def reference_step(sim):
    """Run ``sim``'s next event on its own; ``False`` when none is pending.

    The per-event reference the engine's one drain loop is tested against
    (``tests/test_engine_reference.py``): pop the head event, move the clock
    to it and handle it unfused — a record through the full
    ``Network.pop_record`` (delivery-time adversary check, per-reason drop
    accounting), then the same handler-table lookup and topic folding; a
    Timeout with a per-call ``uniform`` jitter draw and a generic push of
    the next one."""
    if sim.scheduler.next_time() is None:
        return False
    event = pop_event(sim.scheduler)
    if event[0] > sim.now:
        sim.now = event[0]
    sim._steps += 1
    kind = event[REC_KIND]
    if kind == _TIMEOUT:
        node = sim.nodes.get(event[3])
        if node is not None and not node.crashed:
            node.timeout_count += 1
            node.on_timeout()
            jitter = sim.config.timeout_jitter
            next_in = sim.config.timeout_period * (
                1 + sim._jitter_rng.uniform(-jitter, jitter))
            sim._push(sim.now + next_in, _TIMEOUT, event[3])
    elif kind == FAST_RECORD_KIND:
        if sim.network.pop_record(event):
            node = sim.nodes.get(event[REC_DEST])
            handler = (None if node is None or node.crashed
                       else node._action_handlers.get(event[REC_ACTION]))
            if handler is not None:
                params = event[REC_PARAMS]
                if event[REC_TOPIC] is not None and "topic" not in params:
                    params["topic"] = event[REC_TOPIC]
                handler(node, **params)
    elif kind == _CRASH:
        sim._apply_crash(event[3])
    elif kind == _CALL:
        event[3]()
    return True


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

    return [record for record in queued_events(sim.scheduler)
            if record[REC_KIND] == FAST_RECORD_KIND and not gone(record[REC_DEST])
            and all(record[index[key]] == value for key, value in match.items())]


class HeapQueue:
    """The ordering reference for the engine's timing wheel: a ``heapq`` of
    ``(time, seq, kind, ...)`` events behind the wheel's ``push`` and
    ``next_time``.  Its pop order, ascending ``(time, seq)``, is the order
    the wheel must emit."""

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
    :func:`pop_event` pops the head, so the log is the executed stream."""

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
    pending = queued_events(sim.scheduler)
    events = stream + pending
    # every seq the engine drew went into one pushed event: none was lost
    assert sorted(event[1] for event in events) == list(range(next(sim._seq)))
    assert all(event[0] > sim.now for event in pending)
    heap = HeapQueue(events)
    reference = []
    while len(heap) and heap.next_time() <= sim.now:
        reference.append(heap.pop())
    assert reference == stream


def trie_nodes(trie):
    """Every node of ``trie``, parents first and '0' subtrees first (key order)."""
    return iter(()) if trie.root is None else _subtree(trie.root)


def check_trie_invariants(trie):
    """Raise AssertionError if ``trie``'s structural invariants are violated:
    an inner node sets both child slots and a leaf neither; children's
    labels extend the parent's label and diverge on the next bit; every leaf
    label has ``key_bits`` bits; hashes are consistent with the Merkle rule;
    ``value`` holds each label's bits."""
    uncached = node_hash.__wrapped__  # the memo must not check itself
    for node in trie_nodes(trie):
        assert node.value == int(node.label or "0", 2), "value is not the label's bits"
        left, right = node.zero, node.one
        if left is None:
            assert right is None, "a leaf sets neither child slot"
            assert len(node.label) == trie.key_bits, "leaf label has wrong length"
            assert node.publication is not None, "leaf without publication"
            assert node.hash == leaf_hash(node.label), "stale leaf hash"
        else:
            assert right is not None, "an inner node sets both child slots"
            assert left.label.startswith(node.label + "0"), "zero child must extend label + '0'"
            assert right.label.startswith(node.label + "1"), "one child must extend label + '1'"
            assert node.hash == uncached(left.hash, right.hash), "stale inner hash"
            assert node.label == commonprefix((left.label, right.label)), (
                "inner label must be the LCP of its children")


def database_corrupted(db):
    """True if any of the four corruption conditions of Section 3.1 holds
    in the ``TopicDatabase`` ``db``."""
    return (None in db._labels_of  # (i) tuple without a subscriber
            # (ii) one subscriber under several labels
            or len(db._labels_of) != len(db._entries)
            # (iii)/(iv) among n labels, one of l(0..n-1) missing means
            # another is out of range or non-canonical
            or bool(db.missing_labels()))


def label_from_r(value):
    """The canonical label whose ``r``-value equals ``value``: the inverse of
    ``r`` (Section 2.1).

    ``value`` must be a dyadic rational in ``[0, 1)``.  The canonical label is
    the shortest bit string with that value; ``0`` maps to the label ``'0'``
    (the label of the first subscriber)."""
    value = Fraction(value)
    if not 0 <= value < 1:
        raise ValueError("r-value must lie in [0, 1)")
    if value == 0:
        return "0"
    denominator = value.denominator
    if denominator & (denominator - 1) != 0:
        raise ValueError(f"{value} is not a dyadic rational")
    bits = denominator.bit_length() - 1  # denominator = 2^bits
    return format(value.numerator, f"0{bits}b")
