"""Unit tests for hashing, flooding helpers and the topic registry."""

import pytest

from repro.analysis.graph_metrics import distances, graph
from repro.core import messages as msg
from repro.core.labels import max_level
from repro.core.skip_ring import SkipRingTopology
from repro.core.subscriber import Neighbor, Subscriber
from repro.pubsub.flooding import ideal_flood_depth, plain_ring_flood_depth
from repro.pubsub.hashing import leaf_hash, node_hash, publication_key
from repro.pubsub.publications import Publication
from repro.pubsub.topics import TopicRegistry
from repro.sim.engine import Simulator, SimulatorConfig


class TestHashing:
    def test_publication_key_is_deterministic(self):
        assert publication_key(3, b"abc", bits=16) == publication_key(3, b"abc", bits=16)

    def test_publication_key_accepts_str(self):
        assert publication_key(3, "abc", bits=16) == publication_key(3, b"abc", bits=16)

    def test_publication_key_length_and_alphabet(self):
        key = publication_key(1, b"payload", bits=20)
        assert len(key) == 20 and set(key) <= {"0", "1"}

    def test_publication_key_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            publication_key(1, b"x", bits=0)

    def test_leaf_and_node_hash_distinct_domains(self):
        assert leaf_hash("01") != node_hash("01", "01")
        assert node_hash("a", "b") != node_hash("b", "a")


def _flood_targets(left, right, ring, shortcut_refs, exclude):
    """Destinations, in send order, of one ``TopicView._flood`` — the fan-out's
    one implementation — from a view holding exactly these references."""
    sim = Simulator(SimulatorConfig(seed=7))
    node = sim.add_node(Subscriber(1, lambda topic: 0), schedule_timeout=False)
    view = node.view(subscribed=True)
    view.label = "01"
    view.left, view.right, view.ring = (
        None if ref is None else Neighbor("0", ref) for ref in (left, right, ring))
    view.shortcuts = dict(enumerate(shortcut_refs))
    batches = []
    sim._send_fast = lambda sender, topic, sends: batches.append((sender, topic, list(sends)))
    publication = Publication.create(1, b"x", key_bits=64)
    view._flood(publication, hops=3, exclude=exclude)
    assert [batch[:2] for batch in batches] == [(1, view.topic)]  # one batch per flood
    sends = batches[0][2]
    assert all(action == msg.PUBLISH_NEW and params is sends[0][2]
               for _, action, params in sends)  # one read-only dict per flood
    assert not sends or sends[0][2] == {"pub": publication.wire, "hops": 3, "sender": 1}
    return [dest for dest, _, _ in sends]


class TestFlooding:
    def test_flood_fanout_deduplicates_and_excludes(self):
        assert _flood_targets(2, 3, 2, [4, None, 3], exclude=4) == [2, 3]
        # ``exclude`` is message content: a forged, unhashable one excludes nobody
        assert _flood_targets(3, 2, None, [4, 2], exclude=[4]) == [2, 3, 4]

    def test_flood_fanout_empty(self):
        assert _flood_targets(None, None, None, [], exclude=None) == []
        assert _flood_targets(5, None, None, [None], exclude=5) == []

    @pytest.mark.parametrize("n", [2, 8, 16, 64, 256, 1024])
    def test_ideal_flood_depth_logarithmic(self, n):
        assert ideal_flood_depth(n) <= max_level(n) + 1

    def test_ideal_flood_depth_is_the_last_hop_count(self):
        hops = distances(graph(range(32), SkipRingTopology(32).edges()), 0)
        assert len(hops) == 32 and hops[0] == 0
        assert ideal_flood_depth(32) == max(hops.values())
        assert ideal_flood_depth(1) == 0

    def test_plain_ring_depth_linear(self):
        assert plain_ring_flood_depth(1) == 0
        assert plain_ring_flood_depth(16) == 8
        assert plain_ring_flood_depth(101) == 50

    def test_skip_ring_beats_plain_ring_for_large_n(self):
        assert ideal_flood_depth(256) < plain_ring_flood_depth(256)


class TestTopicRegistry:
    def test_subscribe_and_members(self):
        registry = TopicRegistry(["news"])
        registry.subscribe(1, "news")
        registry.subscribe(2, "news")
        registry.subscribe(2, "sports")
        assert registry.members("news") == {1, 2}
        assert registry.topics() == ["news", "sports"]
        assert registry.members("sports") == {2}
        assert "news" in registry

    def test_unsubscribe_and_remove_node(self):
        registry = TopicRegistry()
        registry.subscribe(1, "a")
        registry.subscribe(1, "b")
        registry.unsubscribe(1, "a")
        assert registry.members("a") == set()
        registry.remove_node(1)
        assert registry.members("b") == set()

    def test_unknown_topic_queries_are_safe(self):
        registry = TopicRegistry()
        assert registry.members("ghost") == set()
        registry.unsubscribe(5, "ghost")
        assert "ghost" not in registry

