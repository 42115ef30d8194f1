"""Tests for the baseline overlays, the broker model and the analysis metrics."""

import networkx as nx
import pytest

from repro.analysis.convergence import edge_set_signature
from repro.analysis.graph_metrics import (
    degree_statistics,
    diameter,
    position_balance,
    routing_congestion,
)
from repro.baselines.broker import BrokerLoadModel, BrokerPubSub
from repro.baselines.chord import ChordTopology
from repro.baselines.skipgraph import SkipGraphTopology
from repro.core.labels import r_float
from repro.core.skip_ring import SkipRingTopology


class TestChord:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChordTopology(0)

    def test_distinct_identifiers(self):
        chord = ChordTopology(64, seed=1)
        assert len(set(chord.node_ids)) == 64

    def test_connected_and_logarithmic_degree(self):
        chord = ChordTopology(64, seed=2)
        graph = chord.to_networkx()
        assert nx.is_connected(graph)
        stats = degree_statistics(graph)
        assert stats.mean >= 4  # Chord keeps ~log n fingers per node
        assert diameter(graph) <= 12

    def test_successor_wraps_around(self):
        chord = ChordTopology(8, seed=3)
        beyond_last = chord.node_ids[-1] + 1
        assert chord.successor(beyond_last) == chord.node_ids[0]

    def test_positions_in_unit_interval(self):
        chord = ChordTopology(16, seed=5)
        assert all(0 <= p < 1 for p in chord.positions())


class TestSkipGraph:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SkipGraphTopology(0)

    def test_connected_and_log_degree(self):
        sg = SkipGraphTopology(64, seed=1)
        graph = sg.to_networkx()
        assert nx.is_connected(graph)
        assert degree_statistics(graph).mean >= 4
        assert diameter(graph) <= 16

    def test_single_node(self):
        sg = SkipGraphTopology(1, seed=2)
        assert sg.edges() == set()
        assert diameter(sg.to_networkx()) == 0


class TestBroker:
    def test_load_model_counts(self):
        model = BrokerLoadModel(subscribers=10, publications=5, subscribe_ops=10)
        assert model.broker_messages() == 5 * 11 + 10
        assert model.supervisor_messages(maintenance_rounds=0) == 20

    def test_supervisor_load_independent_of_publications(self):
        a = BrokerLoadModel(subscribers=10, publications=1, subscribe_ops=10)
        b = BrokerLoadModel(subscribers=10, publications=1000, subscribe_ops=10)
        assert a.supervisor_messages(50) == b.supervisor_messages(50)
        assert b.broker_messages() > a.broker_messages()

    def test_operational_broker_matches_model(self):
        broker = BrokerPubSub()
        for node in range(6):
            broker.subscribe(node, "t")
        for i in range(4):
            broker.publish(99, f"p{i}".encode(), "t")
        model = BrokerLoadModel(subscribers=6, publications=4, subscribe_ops=6)
        assert broker.broker_messages_handled == model.broker_messages()

    def test_unsubscribe_stops_delivery(self):
        broker = BrokerPubSub()
        broker.subscribe(1, "t")
        broker.unsubscribe(1, "t")
        assert broker.publish(2, b"x", "t") == 0


class TestGraphMetrics:
    def test_degree_statistics_empty_graph(self):
        stats = degree_statistics(nx.Graph())
        assert stats.mean == 0 and stats.num_edges == 0

    def test_diameter_trivial_graphs(self):
        assert diameter(nx.Graph()) == 0
        g = nx.path_graph(5)
        assert diameter(g) == 4

    def test_routing_congestion_on_star_is_imbalanced(self):
        star = nx.star_graph(20)
        ring = nx.cycle_graph(21)
        star_stats = routing_congestion(star, samples=200, seed=1)
        ring_stats = routing_congestion(ring, samples=200, seed=1)
        assert star_stats.load_imbalance > ring_stats.load_imbalance

    def test_position_balance_skip_ring_vs_random(self):
        skip_positions = [r_float(lbl) for lbl in SkipRingTopology(64).labels]
        chord_positions = ChordTopology(64, seed=1).positions()
        balanced = position_balance(skip_positions)
        hashed = position_balance(chord_positions)
        assert balanced["max_min_ratio"] <= 2.0 + 1e-9
        assert hashed["max_min_ratio"] > balanced["max_min_ratio"]

    def test_position_balance_degenerate(self):
        assert position_balance([0.3])["max_min_ratio"] == 1.0

    def test_edge_set_signature_is_order_independent(self):
        a = edge_set_signature({(1, 2), (3, 4)})
        b = edge_set_signature({(3, 4), (1, 2)})
        c = edge_set_signature({(1, 2)})
        assert a == b and a != c
