"""Unit tests for the PR 4 hot-path machinery: scheduler block pops, wheel
bucket auto-sizing, the cached failure detector, and the slotted node
state."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

import pytest
from conftest import HeapQueue, assert_heapq_order, records_in_flight

from repro.api import SystemSpec
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.failure import FailureDetector
from repro.sim.network import (
    REC_ACTION,
    REC_DELIVER_TIME,
    REC_DEST,
    REC_PARAMS,
    REC_SEND_TIME,
    REC_SEQ,
)
from repro.sim.node import ProtocolNode
from repro.sim.scheduler import TimeoutWheelScheduler, auto_bucket_width

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestPopBatch:
    """``pop_block_into`` on the wheel and its ``heapq`` reference (the class
    and test names predate the block pop)."""

    @staticmethod
    def _fill(events):
        schedulers = (HeapQueue(), TimeoutWheelScheduler(bucket_width=0.25))
        for event in events:
            for scheduler in schedulers:
                scheduler.push(event)
        return schedulers

    @staticmethod
    def _after(time):
        return math.nextafter(time, math.inf)

    def test_equal_timestamp_runs_drain_in_one_batch(self):
        events = [(1.0, 0, 0, "a"), (1.0, 1, 0, "b"), (1.0, 2, 0, "c"),
                  (2.0, 3, 0, "d")]
        for scheduler in self._fill(events):
            block = []
            assert scheduler.pop_block_into(block, self._after(1.0)) == 3
            assert block == events[:3]
            assert scheduler.pop_block_into(block, self._after(2.0)) == 1
            assert block == events
            assert len(scheduler) == 0

    def test_limit_excludes_future_events(self):
        events = [(1.0, 0, 0, "a"), (5.0, 1, 0, "b")]
        for scheduler in self._fill(events):
            block = []
            assert scheduler.pop_block_into(block, 0.5) == 0
            assert scheduler.pop_block_into(block, 1.0) == 0  # exclusive
            assert scheduler.pop_block_into(block, 2.0) == 1
            assert scheduler.pop_block_into(block, 2.0) == 0
            assert block == [events[0]]
            assert len(scheduler) == 1

    def test_pop_batch_into_reuses_buffer_and_counts(self):
        events = [(1.0, 0, 0, "a"), (1.0, 1, 0, "b"), (3.0, 2, 0, "c")]
        for scheduler in self._fill(events):
            out = []
            assert scheduler.pop_block_into(out, 2.0) == 2
            assert scheduler.pop_block_into(out, 4.0) == 1
            assert out == events  # appended to, never replaced
            assert scheduler.pop_block_into(out, 4.0) == 0
            assert scheduler.next_time() is None

    def test_heap_wheel_batch_parity_randomized(self):
        rng = random.Random(3)
        # Coarse timestamps force plenty of equal-time collisions.
        events = [(round(rng.uniform(0, 20), 1), seq, seq % 4, None)
                  for seq in range(2_000)]
        heap, wheel = self._fill(events)
        limit = 0.0
        while len(heap):
            limit += 0.37  # windows not aligned to buckets or timestamps
            blocks = []
            for scheduler in (heap, wheel):
                block = []
                # the wheel stops at bucket boundaries: pop until dry
                while scheduler.pop_block_into(block, limit):
                    pass
                blocks.append(block)
            assert blocks[0] == blocks[1]
        assert len(wheel) == 0


class TestWheelAutoSizing:
    def test_auto_width_tracks_shorter_horizon(self):
        # Delay-dominated: width follows max_delay, not the timeout period —
        # and is clamped to min_delay so no send can land in the bucket
        # being drained (the late-insert-free guarantee).
        assert auto_bucket_width(10.0, 0.01, 0.2) == pytest.approx(0.01)
        # Timeout-dominated: width follows the jittered period, clamped to
        # min_delay.
        assert auto_bucket_width(1.0, 0.1, 50.0, 0.2) == pytest.approx(0.1)
        assert auto_bucket_width(0.0, 0.0, 0.0) > 0  # never degenerate

    def test_auto_width_clamp_never_degenerates(self):
        # A microscopic min_delay must not collapse the wheel into
        # one-event buckets: the clamp floors at 1/32 of the horizon.
        assert auto_bucket_width(1.0, 1e-6, 1.0, 0.2) == pytest.approx(1.0 / 32.0)
        # min_delay above the quarter-horizon width leaves it untouched.
        assert auto_bucket_width(1.0, 0.5, 1.0, 0.2) == pytest.approx(0.25)

    def test_the_simulator_builds_its_wheel_at_auto_width(self):
        config = SimulatorConfig(timeout_period=2.0, min_delay=0.05,
                                 max_delay=3.0, timeout_jitter=0.1)
        sim = Simulator(config)
        assert sim.scheduler.bucket_width == auto_bucket_width(2.0, 0.05, 3.0, 0.1)

    def test_bucket_width_never_changes_results(self, monkeypatch):
        """The width is pure performance: any width, identical runs."""
        def run(width):
            if width is not None:
                monkeypatch.setattr("repro.sim.engine.auto_bucket_width",
                                    lambda *args: width)
            sim = Simulator(SimulatorConfig(seed=5))
            assert width is None or sim.scheduler.bucket_width == width
            nodes = [sim.add_node(_Pinger(i + 1)) for i in range(30)]
            sim.run_rounds(25)
            return ([n.pings for n in nodes], sim.steps_executed,
                    sim.network.stats.total_delivered, sim.now)

        baseline = run(None)
        for width in (0.01, 0.3, 2.5, 40.0):
            assert run(width) == baseline


class _Pinger(ProtocolNode):
    __slots__ = ("pings",)

    def __init__(self, node_id):
        super().__init__(node_id)
        self.pings = 0

    def on_timeout(self):
        self.send(self.node_id % 30 + 1, "Ping", sender=self.node_id)

    def on_Ping(self, sender, topic=None):
        self.pings += 1


class TestWheelDrain:
    def test_the_drain_takes_blocks_through_pop_block_into(self, wheel_stream,
                                                            monkeypatch):
        """The engine drains the wheel a block at a time, in ``heapq``'s
        order."""
        stream, _ = wheel_stream
        blocks = []
        pop_block_into = TimeoutWheelScheduler.pop_block_into

        def counting(self, out, limit):
            count = pop_block_into(self, out, limit)
            if count:
                blocks.append(count)
            return count

        monkeypatch.setattr(TimeoutWheelScheduler, "pop_block_into", counting)
        sim = Simulator(SimulatorConfig(seed=6))
        for i in range(30):
            sim.add_node(_Pinger(i + 1))
        sim.run_rounds(20)
        assert blocks, "drain did not use pop_block_into"
        assert len(stream) == sim.steps_executed
        assert_heapq_order(sim, stream)

    def test_the_drain_with_an_adversary_takes_heapq_order(self, wheel_stream):
        """Drops at delivery time leave the wheel's order intact."""
        from repro.scenarios.adversary import LinkAdversary

        stream, _ = wheel_stream
        sim = Simulator(SimulatorConfig(seed=8))
        sim.install_adversary(LinkAdversary(rng=sim.adversary_rng(), loss_rate=0.2))
        for i in range(30):
            sim.add_node(_Pinger(i + 1))
        sim.run_rounds(15)
        assert sim.network.stats.total_dropped > 0, "adversary never dropped anything"
        assert len(stream) == sim.steps_executed
        assert_heapq_order(sim, stream)


class TestWindowInterrupts:
    def test_interrupted_windows_narrow_under_an_adversary(self, monkeypatch):
        """A delay spike with ``factor < 1`` lands deliveries inside the open
        window; every interrupt hands the unprocessed tail back to the
        queue.  The drain halves its window after each one, so the requeue
        traffic stays a sliver of the events (without the halving it
        exceeds the event count itself)."""
        from repro.scenarios.adversary import LinkAdversary

        block, requeued = set(), []
        pop_block_into = TimeoutWheelScheduler.pop_block_into
        push = TimeoutWheelScheduler.push

        def taking(self, out, limit):
            start = len(out)
            count = pop_block_into(self, out, limit)
            block.clear()
            block.update(event[1] for event in out[start:])
            return count

        def counting(self, event):
            if event[1] in block:  # a seq from the last block: a requeue
                requeued.append(event[1])
            push(self, event)

        monkeypatch.setattr(TimeoutWheelScheduler, "pop_block_into", taking)
        monkeypatch.setattr(TimeoutWheelScheduler, "push", counting)
        sim = Simulator(SimulatorConfig(seed=5))
        adversary = LinkAdversary(rng=sim.adversary_rng())
        adversary.add_delay_spike(0.0, 1e9, factor=0.01)
        sim.install_adversary(adversary)
        for i in range(30):
            sim.add_node(_Pinger(i + 1))
        sim.run_until_time(30.0)
        assert sim.steps_executed > 1_500
        assert 0 < len(requeued) < sim.steps_executed // 20


class TestFailureDetectorCache:
    def test_suspect_set_cached_per_time(self):
        detector = FailureDetector(detection_lag=2.0)
        detector.notify_crash(1, time=10.0)
        detector.notify_crash(2, time=11.0)
        assert not detector.suspects(1, now=11.9)
        assert detector.suspects(1, now=12.0)
        assert not detector.suspects(2, now=12.0)
        assert detector.suspects(2, now=13.0)
        # same time, repeated queries: served from the cached frozenset
        assert detector._suspected_at(13.0) is detector._suspected_at(13.0)

    def test_notify_crash_invalidates_cache(self):
        """A zero-lag detector must suspect a node crashed at the exact time
        the cache was last built for."""
        detector = FailureDetector(detection_lag=0.0)
        assert not detector.suspects(1, now=5.0)  # builds cache for t=5
        detector.notify_crash(1, time=5.0)
        assert detector.suspects(1, now=5.0)

    def test_duplicate_notify_keeps_first_time(self):
        detector = FailureDetector(detection_lag=1.0)
        detector.notify_crash(1, time=10.0)
        detector.notify_crash(1, time=50.0)
        assert detector.suspects(1, now=11.0)

    def test_in_simulation_detection_lag(self):
        sim = Simulator(SimulatorConfig(seed=0, detection_lag=3.0))
        sim.add_node(_Pinger(1), schedule_timeout=False)
        sim.crash_node(1)
        assert not sim.failure_detector.suspects(1)
        sim.run_for(2.9)
        assert not sim.failure_detector.suspects(1)
        sim.run_for(0.2)
        assert sim.failure_detector.suspects(1)


class TestSlotsAndCompat:
    def test_protocol_node_base_is_slotted_but_subclasses_stay_open(self):
        node = ProtocolNode(1)
        assert not hasattr(node, "__dict__")
        pinger = _Pinger(2)  # slotted subclass
        assert not hasattr(pinger, "__dict__")

        class AdHoc(ProtocolNode):  # no __slots__: regains a dict
            pass

        loose = AdHoc(3)
        loose.anything = "fine"
        assert loose.anything == "fine"

    def test_timeout_counts_view_still_available(self):
        sim = Simulator(SimulatorConfig(seed=1))
        sim.add_node(_Pinger(1))
        sim.add_node(_Pinger(2))
        sim.run_rounds(5)
        counts = sim.timeout_counts
        assert set(counts) == {1, 2}
        assert all(count >= 4 for count in counts.values())
        assert sim.completed_timeout_intervals() == min(counts.values())

    def test_topic_folded_into_params_reaches_handler(self):
        sim = Simulator(SimulatorConfig(seed=2))
        received = []

        class TopicEcho(ProtocolNode):
            __slots__ = ()

            def on_Echo(self, value, topic=None):
                received.append((value, topic))

        sim.add_node(TopicEcho(1), schedule_timeout=False)
        sim.add_node(TopicEcho(2), schedule_timeout=False)
        sim.nodes[1].send(2, "Echo", topic="news", value=42)
        sim.run_for(5.0)
        assert received == [(42, "news")]


class TestProtocolPathStaysFractionFree:
    """The PR 14 contract: ``Fraction`` / ``r_value`` are the specification
    and the test oracle; no handler, the supervisor database and the
    legitimacy oracle never touch them, and a join never sorts the database."""

    def test_stabilize_maintain_and_recover_without_fraction(self, monkeypatch):
        from repro.api import builder
        import repro.analysis.convergence as convergence
        import repro.core.labels as labels
        import repro.core.shortcuts as shortcuts
        import repro.core.skip_ring as skip_ring
        import repro.core.subscriber as subscriber
        import repro.core.supervisor as supervisor

        def off_the_path(*args, **kwargs):
            raise AssertionError("Fraction algebra reached from the protocol path")

        for module in (labels, shortcuts, skip_ring, subscriber, supervisor, convergence):
            for name in ("r_value", "label_from_r", "r_float", "Fraction"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, off_the_path)

        system = builder.build_system(SystemSpec(seed=14))
        peers = [system.add_subscriber() for _ in range(64)]
        assert system.run_until_legitimate()
        system.run_rounds(10)
        assert system.is_legitimate()
        system.crash(peers[17])
        assert not system.is_legitimate()
        assert system.run_until_legitimate()
        assert len(system.members()) == 63

    def test_a_join_does_not_sort_the_database(self, monkeypatch, supervised):
        import repro.core.supervisor as supervisor_module

        sim, supervisor = supervised(range(1, 289))
        for node in range(1, 257):
            supervisor.on_Subscribe(node)

        calls = []

        def counting_sorted(*args, **kwargs):
            calls.append(args)
            return sorted(*args, **kwargs)

        # A module global shadows the builtin for code in that module only.
        monkeypatch.setattr(supervisor_module, "sorted", counting_sorted, raising=False)
        for node in range(257, 289):
            supervisor.on_Subscribe(node)
            supervisor.on_GetConfiguration(node)
        supervisor.on_Unsubscribe(5)
        supervisor.on_timeout()  # CheckLabels on an uncorrupted database
        assert calls == []
        db = supervisor.database()
        assert db.n == 287 and not db.is_corrupted()
        db.put("0100", 5)  # non-canonical: now the repair has something to sort
        supervisor.on_timeout()
        assert calls and not db.is_corrupted()

    def test_checklabels_on_an_unchanged_database_scans_no_labels(self, monkeypatch,
                                                                   supervised):
        """The hole scan (n ``label_of`` calls) runs once per database write:
        a Timeout on an unchanged database calls ``label_of`` once, for the
        round-robin pick, and the oracle's ``is_corrupted`` not at all."""
        import repro.core.supervisor as supervisor_module

        sim, supervisor = supervised(range(1, 257))
        for node in range(1, 257):
            supervisor.on_Subscribe(node)
        supervisor.on_timeout()
        db = supervisor.database()
        calls = []

        def counting_label_of(index):
            calls.append(index)
            return label_of(index)

        label_of = supervisor_module.label_of
        monkeypatch.setattr(supervisor_module, "label_of", counting_label_of)
        for _ in range(5):
            supervisor.on_timeout()
            assert not db.is_corrupted()
            db.repair_labels()
        assert len(calls) == 5  # one round-robin label per Timeout
        db.remove(label_of(db.n - 1))  # a write: the next read scans again
        assert not db.is_corrupted() and len(calls) == 5 + db.n

    def test_consecutive_checks_at_one_n_build_sr_n_once(self, monkeypatch):
        from repro.analysis import convergence
        from repro.api import build_stable
        from repro.core.skip_ring import SkipRingTopology

        system, _ = build_stable(SystemSpec(seed=26), 37)
        convergence._ideal_state.cache_clear()
        built = _count_constructions(monkeypatch, SkipRingTopology)
        assert all(system.is_legitimate() for _ in range(6))
        assert built == [1]


def _count_constructions(monkeypatch, cls):
    """Patch ``cls.__init__`` to append to the returned list per instance."""
    built = []
    real_init = cls.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return built


class _CountingHashlib:
    """Stands in for ``hashlib`` inside ``repro.pubsub.hashing``."""

    def __init__(self):
        self.calls = 0

    def sha256(self, data=b""):
        self.calls += 1
        return hashlib.sha256(data)


class TestPublicationPathBudget:
    """The PR 15 contract: a trie node is hashed when it is read, a
    publication is derived once per distinct wire content, and its wire form
    is built once.  PR 21 adds: a leaf is hashed once per publication and a
    duplicate insert is answered before the key is validated.  A key's bits
    are checked once per publication, and an inner digest once per distinct
    child pair (``node_hash`` is memoized, so every count starts from an
    empty memo)."""

    @pytest.fixture
    def sha(self, monkeypatch):
        import repro.pubsub.hashing as hashing
        counter = _CountingHashlib()
        monkeypatch.setattr(hashing, "hashlib", counter)
        hashing.node_hash.cache_clear()
        return counter

    def test_inserts_hash_nothing_and_a_read_hashes_each_node_once(self, sha):
        from repro.pubsub.patricia import PatriciaTrie
        from repro.pubsub.publications import Publication

        k = 64
        publications = [Publication.create(1, bytes([i]), key_bits=64) for i in range(k)]
        trie = PatriciaTrie(key_bits=64)
        sha.calls = 0
        for publication in publications:
            trie.insert(publication)
        assert sha.calls == 0
        first = trie.root_summary()
        assert 0 < sha.calls <= 2 * k - 1  # k leaves, k - 1 inner nodes
        sha.calls = 0
        assert trie.root_summary() == first
        assert sha.calls == 0
        trie.check_invariants()

    def test_n_views_hash_one_interned_leaf_once(self, sha):
        """PR 21: ``h(key)`` is remembered on the interned publication, so it
        is hashed once per publication, not per (publication, subscriber)."""
        from repro.core.subscriber import Subscriber
        from repro.pubsub.hashing import leaf_hash

        sim = Simulator(SimulatorConfig(seed=21))
        wire = {"publisher": 9, "payload": "abcd", "key_bits": 64}
        views = []
        for node_id in range(1, 9):
            node = sim.add_node(Subscriber(node_id, lambda topic: 0), schedule_timeout=False)
            node.on_PublishNew(pub=dict(wire), hops=1, sender=None)
            views.append(node.view())
        stored = {id(view.trie.get(view.trie.keys()[0])) for view in views}
        assert len(stored) == 1 and sha.calls == 1  # one instance, one key derivation
        assert len({id(view.trie.root) for view in views}) == 1  # one shared leaf node
        sha.calls = 0
        summaries = {view.trie.root_summary() for view in views}
        assert sha.calls == 1  # one leaf hash between the 8 tries
        (key, digest), = summaries
        assert digest == leaf_hash(key)

    def test_a_duplicate_insert_is_answered_before_validation(self):
        """A new key's bits are scanned once per publication, when its shared
        leaf is built, not once per trie; each trie still checks the length."""
        from repro.pubsub.patricia import PatriciaTrie
        from repro.pubsub.publications import Publication

        class CountingKey(str):
            scans = lengths = 0

            def strip(self, chars=None):
                CountingKey.scans += 1
                return super().strip(chars)

            def __len__(self):
                CountingKey.lengths += 1
                return super().__len__()

        tries = [PatriciaTrie(key_bits=8) for _ in range(3)]
        stored = Publication(1, b"a", CountingKey("01100110"))
        for trie in tries:
            assert trie.insert(Publication(1, b"b", "01100111")) and trie.insert(stored)
        assert (CountingKey.scans, CountingKey.lengths) == (1, 3)  # one scan, a length per trie
        CountingKey.scans = CountingKey.lengths = 0
        for trie in tries:
            assert trie.insert(stored) is False
            assert trie.insert(Publication(2, b"other", CountingKey("01100110"))) is False
        assert CountingKey.scans == CountingKey.lengths == 0
        # ... and a new malformed key still raises, in every trie, leaving each as it was
        before = [(len(trie), trie.root_summary()) for trie in tries]
        for malformed in ("0110011", "011001100", "0110011x", ""):
            publication = Publication(1, b"c", malformed)
            for trie in tries:
                with pytest.raises(ValueError):
                    trie.insert(publication)
        assert [(len(trie), trie.root_summary()) for trie in tries] == before
        for trie in tries:
            trie.check_invariants()

    def test_a_trie_node_is_two_slots_and_holds_no_container(self):
        """A node's children are the slots ``zero`` and ``one``: an insert
        allocates one object, not a node and its children dict."""
        from repro.pubsub.patricia import PatriciaTrie, TrieNode
        from repro.pubsub.publications import Publication

        assert "children" not in TrieNode.__slots__ and not hasattr(TrieNode, "children")
        assert {"zero", "one"} <= set(TrieNode.__slots__)
        trie = PatriciaTrie(key_bits=8)
        for i in range(16):
            trie.insert(Publication.create(1, bytes([i]), key_bits=8))
        nodes = list(trie.iter_nodes())
        assert len(nodes) == 2 * len(trie) - 1
        for node in nodes:
            assert not hasattr(node, "__dict__")
            assert not any(isinstance(getattr(node, name), (dict, list, set, tuple))
                           for name in TrieNode.__slots__)

    def test_a_stored_publication_is_not_derived_again(self, sha):
        from repro.core.subscriber import Subscriber

        sim = Simulator(SimulatorConfig(seed=15))
        node = Subscriber(1, lambda topic: 0)
        sim.add_node(node, schedule_timeout=False)
        view = node.view(subscribed=True)
        wire = {"publisher": 9, "payload": "ab", "key_bits": 64}
        node.on_PublishNew(pub=dict(wire), hops=1, sender=2)
        assert len(view.trie) == 1 and sha.calls == 1  # the key derivation
        sha.calls = 0
        node.on_PublishNew(pub=dict(wire), hops=2, sender=3)  # equal content, another dict
        node.on_Publish(pubs=[dict(wire)])
        assert len(view.trie) == 1 and sha.calls == 0

    def test_one_wire_form_and_one_instance_per_publication(self):
        from repro.pubsub.publications import Publication

        p = Publication.create(3, b"payload", key_bits=64)
        assert p.wire is p.wire
        assert p.wire == {
            "publisher": 3, "payload": b"payload".hex(), "key_bits": 64,
            "key": "0110011100100110100100011100011100111111111010101111000111100110"}
        q = Publication.from_wire(p.wire)
        assert q is p  # the publisher's own instance is the interned one
        assert Publication.from_wire(dict(p.wire)) is q
        assert Publication.from_wire(q.wire) is q

    def test_intern_table_holds_nothing_a_dropped_system_held(self):
        import gc

        from repro.api import build_stable
        from repro.pubsub.publications import _INTERNED

        gc.collect()
        before = set(_INTERNED.keys())
        system, peers = build_stable(SystemSpec(seed=15), 16)
        for i, peer in enumerate(peers):
            system.publish(peer, b"budget-%d" % i)
        assert system.run_until_publications_converged()
        assert len(set(_INTERNED.keys()) - before) == len(peers)
        del system, peers, peer
        gc.collect()
        assert set(_INTERNED.keys()) - before == set()


class TestAdversarialSendBudget:
    """The PR 22 contract: the scenario harness installs a ``LinkAdversary``
    on every run, so a send under one is the hot path — two Python frames
    (``_send_fast`` and ``on_submit``) and no verdict object unless a delay
    spike has a factor to carry."""

    @pytest.fixture
    def harness(self, monkeypatch):
        """A stable 16-node system with the runner's adversary installed,
        and the list every ``LinkVerdict`` construction appends to."""
        from repro.api import build_stable
        from repro.scenarios import ScenarioRunner, get_scenario
        from repro.scenarios.adversary import LinkVerdict

        built = _count_constructions(monkeypatch, LinkVerdict)
        system, _ = build_stable(SystemSpec(seed=22), 16)
        runner = ScenarioRunner(get_scenario("lossy-network"), seed=22,
                                system=system)
        assert system.sim.network.adversary is runner.adversary
        return system, runner.adversary, built

    @staticmethod
    def _frames_per_send(system, rounds):
        """Python ``call`` events from ``_send_fast`` down (itself included)
        per send, over ``rounds`` timeout periods."""
        import sys

        depth = frames = 0

        def profiler(frame, event, arg):
            nonlocal depth, frames
            if event == "call":
                if depth or frame.f_code.co_name == "_send_fast":
                    depth += 1
                    frames += 1
            elif event == "return" and depth:
                depth -= 1

        before = system.sim.network.stats.total_sent
        sys.setprofile(profiler)
        try:
            system.run_rounds(rounds)
        finally:
            sys.setprofile(None)
        return frames / (system.sim.network.stats.total_sent - before)

    def test_a_quiet_adversary_costs_two_frames_and_no_verdict(self, harness):
        system, adversary, built = harness
        assert adversary.loss_rate == adversary.duplicate_rate == 0.0
        assert not adversary.partitions and not adversary.spikes
        assert self._frames_per_send(system, 10) <= 2.0
        assert system.sim.network.stats.total_sent > 500
        assert built == []

    def test_loss_and_duplication_build_no_verdict(self, harness):
        system, adversary, built = harness
        adversary.set_rates(loss_rate=0.1, duplicate_rate=0.05)
        system.run_rounds(10)
        stats = system.sim.network.stats
        assert stats.drops_by_reason["adversary_loss"] > 0 and stats.duplicated > 0
        assert built == []

    def test_a_delay_spike_builds_a_verdict_and_its_factor_is_applied(self, harness):
        system, adversary, built = harness
        sim = system.sim
        start = sim.now
        adversary.add_delay_spike(start, start + 5.0, factor=3.0)
        system.run_rounds(4)
        spiked = [record[REC_DELIVER_TIME] - record[REC_SEND_TIME]
                  for record in records_in_flight(sim) if record[REC_SEND_TIME] >= start]
        assert built and spiked
        assert all(3.0 * sim.config.min_delay <= latency <= 3.0 * sim.config.max_delay
                   for latency in spiked)
        assert max(spiked) > sim.config.max_delay


class TestSteadyStateBudget:
    """The PR 18 contract: a view of a legitimate ring derives what follows
    from ``(label, left, right, ring)`` once, re-sends the same params dicts
    every Timeout, and every write to the view shows in the next Timeout."""

    @pytest.fixture
    def steady(self):
        from repro.api import build_stable

        system, peers = build_stable(SystemSpec(seed=18), 32)
        keys = {system.publish(peer, b"steady-%d" % i).key
                for i, peer in enumerate(peers[:8])}
        assert system.run_until_publications_converged(expected_keys=keys)
        system.run_rounds(3)
        return system, peers

    @staticmethod
    def _timeout_sends(system, peer):
        """What one more Timeout of ``peer`` puts in flight, as
        ``{(dest, action): params}`` — the records' own dicts, not copies."""
        before = {record[REC_SEQ] for record in records_in_flight(system.sim)}
        peer.on_timeout()
        new = [record for record in records_in_flight(system.sim, sender=peer.node_id)
               if record[REC_SEQ] not in before]
        sends = {(record[REC_DEST], record[REC_ACTION]): record[REC_PARAMS] for record in new}
        assert len(sends) == len(new), "the view is not in its steady state"
        return sends

    def test_a_legitimate_ring_validates_and_derives_next_to_nothing(self, steady, monkeypatch):
        import repro.core.subscriber as subscriber_module

        calls = {"is_valid_label": 0, "shortcut_labels_from_neighbor": 0}

        def counted(name):
            original = getattr(subscriber_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(subscriber_module, name, counted(name))
        system, peers = steady
        before = sum(peer.timeout_count for peer in peers)
        system.run_rounds(10)
        node_rounds = sum(peer.timeout_count for peer in peers) - before
        assert node_rounds >= 300 and system.is_legitimate()
        # 4.1 per node-round before the plan; what is left is SetData ingress.
        assert calls["is_valid_label"] <= 1.0 * node_rounds
        assert calls["shortcut_labels_from_neighbor"] == 0

    def test_consecutive_timeouts_send_the_same_params_objects(self, steady):
        system, peers = steady
        shared = {"Introduce": 0, "IntroduceShortcut": 0, "CheckTrie": 0}
        for peer in peers:
            first = self._timeout_sends(system, peer)
            second = self._timeout_sends(system, peer)
            for key in first.keys() & second.keys():
                if key[1] in shared:
                    assert first[key] is second[key]
                    shared[key[1]] += 1
            # CheckTrie goes to a random neighbour: same dict whoever gets it.
            offers = [params for sends in (first, second)
                      for (_, action), params in sends.items() if action == "CheckTrie"]
            assert len(offers) == 2 and offers[0] is offers[1]
        # Every node has two ring neighbours; the two nodes of level 1 have
        # one and the same own-level neighbour on both sides, so no pair.
        assert shared["Introduce"] >= 2 * len(peers)
        assert shared["IntroduceShortcut"] >= 2 * (len(peers) - 2)

    def test_every_write_shows_in_the_next_timeout(self, steady):
        system, peers = steady
        # A node of the deepest level: ``label + "1"`` is a ring position
        # between it and its right neighbour.
        peer = next(p for p in peers if len(p.label()) == 5
                    and p.view().left and p.view().right)
        view = peer.view()
        sends = self._timeout_sends(system, peer)
        left, right = view.left, view.right

        # a SetData that moves the node to another label between its neighbours
        new_label = view.label + "1"
        peer.on_SetData(pred=tuple(left), label=new_label, succ=tuple(right),
                        topic=view.topic)
        after = self._timeout_sends(system, peer)
        for dest in (left.ref, right.ref):
            assert sends[dest, "Introduce"]["label"] != new_label
            assert after[dest, "Introduce"]["label"] == new_label
            assert after[dest, "Introduce"] is not sends[dest, "Introduce"]

        # a RemoveConnections from the left neighbour: no Introduce to it any more
        peer.on_RemoveConnections(node=left.ref, topic=view.topic)
        after = self._timeout_sends(system, peer)
        assert (left.ref, "Introduce") not in after
        assert (right.ref, "Introduce") in after
        assert [dest for dest, action in after if action == "CheckTrie"] == [right.ref]

        # a trie insert: the next root offer carries the new root
        old_offer = next(params for (_, action), params in after.items()
                         if action == "CheckTrie")
        peer.publish(b"one more")
        after = self._timeout_sends(system, peer)
        offer = next(params for (_, action), params in after.items()
                     if action == "CheckTrie")
        assert offer is not old_offer
        assert offer["tuples"] == [view.trie.root_summary()] != old_offer["tuples"]

    @staticmethod
    def _frames(system, rounds):
        """Python ``call`` events under ``_run_blocks`` (the ``TestAdversarial
        SendBudget`` idiom): per delivered Introduce / IntroduceShortcut /
        CheckTrie, every frame its handler enters; per subscriber Timeout, the
        frames of the protocol's own code outside ``_send_fast`` (the stdlib's
        ``random.choice`` that draws the anti-entropy partner is not counted),
        and the sends."""
        import sys
        from collections import Counter

        import repro
        from repro.core.subscriber import Subscriber

        package = str(Path(repro.__file__).parent)
        handlers = {getattr(Subscriber, f"on_{action}").__code__: action
                    for action in ("Introduce", "IntroduceShortcut", "CheckTrie")}
        delivered, frames = Counter(), Counter()
        timeout = Counter()
        entry = depth = sending = 0

        def profiler(frame, event, arg):
            nonlocal entry, depth, sending
            if event == "call":
                code = frame.f_code
                if not depth:
                    if code in handlers:
                        entry = handlers[code]
                        delivered[entry] += 1
                    elif code is Subscriber.on_timeout.__code__:
                        entry = "timeout"
                    else:
                        return
                depth += 1
                if entry != "timeout":
                    frames[entry] += 1
                elif sending:
                    sending += 1  # below ``_send_fast``
                elif code.co_name == "_send_fast":
                    sending = 1
                    timeout["sends"] += 1
                elif code.co_filename.startswith(package):
                    timeout["frames"] += 1
            elif event == "return" and depth:
                depth -= 1
                if sending:
                    sending -= 1

        sys.setprofile(profiler)
        try:
            system.run_rounds(rounds)
        finally:
            sys.setprofile(None)
        return delivered, frames, timeout

    def test_a_steady_delivery_is_one_frame(self, steady):
        """The "nothing to do" answer is the handler's first lines."""
        system, peers = steady
        delivered, frames, _ = self._frames(system, 10)
        for action in ("Introduce", "IntroduceShortcut", "CheckTrie"):
            assert delivered[action] >= 8 * len(peers)
            assert frames[action] <= 1.0 * delivered[action], action

    def test_a_steady_timeout_costs_at_most_one_frame_per_send(self, steady):
        """Each send calls ``_send_fast`` from the frame that decides it."""
        system, peers = steady
        _, _, timeout = self._frames(system, 10)
        assert timeout["sends"] >= 4 * 10 * len(peers)
        assert timeout["frames"] <= 1.0 * timeout["sends"]

    def test_a_cached_message_in_flight_only_ever_gains_its_topic(self, steady):
        """Cached params are shared between messages: delivering one copy may
        fold the topic into the dict (idempotent) and nothing else."""
        system, peers = steady
        sim = system.sim
        peer = peers[5]
        view = peer.view()
        dest = view.left.ref if view.left else view.right.ref
        self._timeout_sends(system, peer)
        sim.run_for(sim.config.max_delay + 0.01)   # the first copies are delivered
        delivered = peer.view()._plan.introduces[0][1]
        assert delivered["topic"] == view.topic
        sibling = self._timeout_sends(system, peer)[dest, "Introduce"]
        snapshot = dict(sibling)
        sim.run_for(sim.config.min_delay / 2)       # other deliveries, not this one
        in_flight = records_in_flight(sim, sender=peer.node_id, dest=dest, action="Introduce")
        assert in_flight and all(record[REC_PARAMS] is sibling for record in in_flight)
        assert sibling == snapshot
        assert {k: v for k, v in sibling.items() if k != "topic"} == {
            "node": peer.node_id, "label": view.label,
            "believed": (view.left or view.right).label, "flag": "LIN"}


class TestProfilerSpeaksTheBenchmarksNames:
    """``scripts/profile_hotpath.py`` profiles what ``bench/`` measures: its
    one name space is the workload list of ``BENCHMARK.json``."""

    @pytest.fixture(scope="class")
    def script(self):
        spec = importlib.util.spec_from_file_location(
            "profile_hotpath", REPO_ROOT / "scripts" / "profile_hotpath.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture(scope="class")
    def names(self):
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        return [workload["name"] for workload in declared["workloads"]]

    def test_list_prints_the_declared_workloads_in_order(self, script, names, capsys):
        assert script.main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == names

    def test_a_retired_case_name_is_a_usage_error(self, script, names, capsys):
        with pytest.raises(SystemExit) as exit_info:
            script.main(["core_2k_wheel"])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err
        assert "invalid choice: 'core_2k_wheel'" in message
        assert all(name in message for name in names)

    @pytest.mark.parametrize("name, protocol", [("engine_storm", False),
                                                ("publish_fanout", True)])
    def test_json_carries_sha256_per_op(self, script, name, protocol):
        workload = script._benchmark_workloads()[name]
        state = workload.setup(script.WORKLOAD_SEED, workload.sizes(0.05))
        from repro.pubsub.hashing import node_hash

        node_hash.cache_clear()  # so the SHA-256 count does not depend on earlier tests
        stats, events, region = script.profile_region(workload, state)
        assert workload.check(state) == 0
        payload = script.profile_payload(stats, workload, events, workload.ops(state),
                                         "tottime", 5, region)
        assert 0 <= payload["node_hash_memo_hit_rate"] <= 1
        # the cyclic collector's share of the region, from gc.callbacks around it
        assert 0 <= payload["gc_share"] <= 1
        assert isinstance(payload["gc_collections"], int) and payload["gc_collections"] >= 0
        assert payload["calls_per_event"] > 0
        # engine_storm never hashes nor checks; a delivery pays at least its
        # share of the trie, and the drive polls publications_converged
        for key in ("sha256_per_op", "decodes_per_op", "oracle_share",
                    "oracle_checks_per_op"):
            assert payload[key] > 0 if protocol else payload[key] == 0, key
        assert payload["oracle_share"] < 1
        # each member decodes a publication once; a copy it stores is dropped undecoded
        assert payload["decodes_per_op"] <= 1.05

