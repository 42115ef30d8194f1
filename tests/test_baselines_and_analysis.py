"""Tests for the baseline overlays, the broker model and the analysis metrics."""

import math
import random

import pytest

from repro.analysis.convergence import edge_set_signature
from repro.analysis.graph_metrics import (
    CongestionStats,
    degree_statistics,
    diameter,
    distances,
    graph,
    position_balance,
    routing_congestion,
    shortest_path,
)
from repro.baselines.broker import BrokerLoadModel, BrokerPubSub
from repro.baselines.chord import ChordTopology
from repro.baselines.skipgraph import SkipGraphTopology
from repro.core.labels import r_float
from repro.core.skip_ring import SkipRingTopology


def path_graph(n):
    return graph(range(n), zip(range(n), range(1, n)))


def star_graph(leaves):
    return graph(range(leaves + 1), ((0, leaf) for leaf in range(1, leaves + 1)))


def cycle_graph(n):
    return graph(range(n), ((i, (i + 1) % n) for i in range(n)))


class TestChord:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChordTopology(0)

    def test_distinct_identifiers(self):
        chord = ChordTopology(64, seed=1)
        assert len(set(chord.node_ids)) == 64

    def test_connected_and_logarithmic_degree(self):
        chord = ChordTopology(64, seed=2)
        adj = graph(chord.node_ids, chord.edges())
        assert len(distances(adj, chord.node_ids[0])) == len(adj)
        stats = degree_statistics(adj)
        assert stats.mean >= 4  # Chord keeps ~log n fingers per node
        assert diameter(adj) <= 12

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
        adj = graph(range(64), sg.edges())
        assert len(distances(adj, 0)) == len(adj)
        assert degree_statistics(adj).mean >= 4
        assert diameter(adj) <= 16

    def test_single_node(self):
        sg = SkipGraphTopology(1, seed=2)
        assert sg.edges() == set()
        assert diameter(graph(range(1), sg.edges())) == 0


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
        stats = degree_statistics(graph([], []))
        assert stats.mean == 0 and stats.num_edges == 0

    def test_trivial_graphs(self):
        assert graph([], []) == {} and diameter(graph([], [])) == 0
        single = graph([7], [])
        assert single == {7: {}} and diameter(single) == 0
        assert distances(single, 7) == {7: 0} and shortest_path(single, 7, 7) == [7]
        assert diameter(path_graph(5)) == 4

    def test_diameter_raises_on_a_disconnected_graph(self):
        with pytest.raises(ValueError, match="disconnected"):
            diameter(graph(range(3), [(0, 1)]))

    def test_an_unreachable_pair_has_no_path(self):
        split = graph(range(4), [(0, 1), (2, 3)])
        assert distances(split, 0) == {0: 0, 1: 1}
        for route in (lambda: shortest_path(split, 0, 2),
                      lambda: routing_congestion(split, pairs=[(0, 1), (0, 2)])):
            with pytest.raises(ValueError, match="no path between 0 and 2"):
                route()

    def test_shortest_path_is_networkx_documented_example(self):
        # networkx's bidirectional_shortest_path docstring: two 4-cycles joined at 0-4.
        walk = [0, 1, 2, 3, 0, 4, 5, 6, 7, 4]
        adj = graph([], zip(walk, walk[1:]))
        assert shortest_path(adj, 2, 6) == [2, 1, 0, 4, 5, 6]
        assert distances(adj, 2) == {2: 0, 1: 1, 3: 1, 0: 2, 4: 3, 5: 4, 7: 4, 6: 5}

    def test_graph_keeps_insertion_order(self):
        # Neighbour order decides shortest_path's tie-breaks, so E8's figures.
        adj = graph([3, 1, 2], [(3, 2), (1, 3), (2, 1), (3, 2)])
        assert list(adj) == [3, 1, 2]
        assert {v: list(nbrs) for v, nbrs in adj.items()} == {3: [2, 1], 1: [3, 2], 2: [3, 1]}

    def test_routing_congestion_on_star_is_imbalanced(self):
        star = star_graph(20)
        ring = cycle_graph(21)
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
        trivial = {"max_min_ratio": 1.0, "cv": 0.0, "max_gap": 1.0, "min_gap": 1.0}
        assert position_balance([]) == trivial
        assert position_balance([0.3]) == trivial
        # two positions: the smallest input that has gaps at all
        assert position_balance([0.0, 0.5]) == {
            "max_min_ratio": 1.0, "cv": 0.0, "max_gap": 0.5, "min_gap": 0.5}
        coincident = position_balance([0.5, 0.5])
        assert coincident["max_min_ratio"] == math.inf and coincident["cv"] == 1.0
        # all-equal gaps: the coefficient of variation is exactly zero
        assert position_balance([0.125, 0.375, 0.625, 0.875])["cv"] == 0.0
        assert position_balance([i / 64 for i in range(64)])["cv"] == 0.0

    def test_routing_congestion_degenerate(self):
        nothing = CongestionStats(0, 0, 0.0, 0.0, 1.0)
        assert routing_congestion(graph([], [])) == nothing
        assert routing_congestion(graph([0], [])) == nothing
        # no pair routed: zero mean load, the imbalance falls back to 1.0
        assert routing_congestion(path_graph(3), samples=0) == nothing
        assert routing_congestion(path_graph(3), pairs=[]) == nothing
        # two nodes, the fewest a percentile can be taken over
        assert routing_congestion(path_graph(2), samples=5, seed=0) == CongestionStats(
            samples=5, max_load=5, mean_load=5.0, p99_load=5.0, load_imbalance=1.0)
        uneven = routing_congestion(path_graph(2), pairs=[(0, 0), (0, 1)])
        assert uneven == CongestionStats(2, 3, 2.0, 2.98, 1.5)


# E8's overlays (seed 6, 300 samples) as computed when numpy did the statistics and
# networkx the shortest paths: (n, overlay) -> routing_congestion fields, position_balance keys.
E8_PARENT_VALUES = {
    (64, "skip-ring"): (
        (300, 121, 19.859375, 110.28999999999996, 6.092840283241542),
        (1.0, 0.0, 0.015625, 0.015625)),
    (64, "chord"): (
        (300, 47, 13.8125, 34.39999999999995, 3.4027149321266967),
        (80.60140730537964, 1.0321996468003636, 0.0719798943027854, 0.0008930352050811052)),
    (64, "skip-graph"): (
        (300, 32, 17.75, 31.369999999999997, 1.8028169014084507),
        (791.6300812073558, 0.8772732602329933, 0.06126548250525221, 7.739155441366385e-05)),
    (256, "skip-ring"): (
        (300, 115, 6.53125, 85.84999999999985, 17.607655502392344),
        (1.0, 0.0, 0.00390625, 0.00390625)),
    (256, "chord"): (
        (300, 16, 4.0234375, 12.0, 3.9766990291262134),
        (1000.0869531578132, 0.9860869855752981, 0.021066951332613826, 2.10651196539402e-05)),
    (256, "skip-graph"): (
        (300, 17, 5.02734375, 13.449999999999989, 3.3815073815073817),
        (2300.863439267009, 0.9600178044156822, 0.020120419088598296, 8.744725456200086e-06)),
}


class TestGraphMetricsNumerics:
    """The statistics are plain stdlib arithmetic; numpy computed them before."""

    @pytest.mark.parametrize("n,overlay", sorted(E8_PARENT_VALUES))
    def test_e8_overlays_match_the_numpy_era_values(self, n, overlay):
        if overlay == "skip-ring":
            topo = SkipRingTopology(n)
            nodes, positions = range(n), [r_float(lbl) for lbl in topo.labels]
        elif overlay == "chord":
            topo = ChordTopology(n, seed=6)
            nodes, positions = topo.node_ids, topo.positions()
        else:
            topo = SkipGraphTopology(n, seed=6)
            nodes, positions = range(n), topo.positions()
        congestion = routing_congestion(graph(nodes, topo.edges()), samples=300, seed=6)
        balance = position_balance(positions)
        want_congestion, want_balance = E8_PARENT_VALUES[n, overlay]
        got_congestion = (congestion.samples, congestion.max_load, congestion.mean_load,
                          congestion.p99_load, congestion.load_imbalance)
        got_balance = tuple(balance[key] for key in ("max_min_ratio", "cv", "max_gap", "min_gap"))
        assert isinstance(congestion.max_load, int) and isinstance(congestion.mean_load, float)
        for got, want in zip(got_congestion + got_balance, want_congestion + want_balance):
            assert round(got, 2) == round(want, 2)  # the precision E8 prints
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_statistics_agree_with_numpy_on_random_vectors(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(24)
        for _ in range(200):
            # Loads: on a star every routed (leaf, hub) pair adds one to each end,
            # so the load vector is the chosen leaf counts plus their sum at the hub.
            leaves = rng.randint(1, 120)
            counts = [rng.randint(0, 12) for _ in range(leaves)]
            pairs = [(leaf, 0) for leaf, c in enumerate(counts, start=1) for _ in range(c)]
            loads = np.array([sum(counts)] + counts, dtype=float)
            stats = routing_congestion(star_graph(leaves), pairs=pairs)
            assert stats.max_load == loads.max()
            assert math.isclose(stats.mean_load, loads.mean(), rel_tol=1e-12)
            assert math.isclose(stats.p99_load, np.percentile(loads, 99), rel_tol=1e-12)
            # Gaps: position_balance's own construction, then numpy's mean and std.
            pos = sorted(rng.random() for _ in range(rng.randint(2, 300)))
            gaps = np.array([b - a for a, b in zip(pos, pos[1:])] + [1.0 - pos[-1] + pos[0]])
            balance = position_balance(pos)
            assert balance["max_gap"] == gaps.max() and balance["min_gap"] == gaps.min()
            assert math.isclose(balance["cv"], gaps.std() / gaps.mean(), rel_tol=1e-12)

    def test_edge_set_signature_is_order_independent(self):
        a = edge_set_signature({(1, 2), (3, 4)})
        b = edge_set_signature({(3, 4), (1, 2)})
        c = edge_set_signature({(1, 2)})
        assert a == b and a != c
