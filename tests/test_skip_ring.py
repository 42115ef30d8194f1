"""Unit tests for the ideal SR(n) topology (Definition 2, Lemma 3, Figure 1)."""

import pytest

from repro.analysis.graph_metrics import degree_statistics, diameter, distances, graph
from repro.core.labels import label_length, max_level, r_value
from repro.core.skip_ring import SkipRingTopology


def skip_ring_graph(n):
    return graph(range(n), SkipRingTopology(n).edges())


class TestConstruction:
    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            SkipRingTopology(0)

    def test_single_node_has_no_edges(self):
        topo = SkipRingTopology(1)
        assert topo.edges() == set()
        assert diameter(skip_ring_graph(1)) == 0

    def test_two_nodes_single_edge(self):
        topo = SkipRingTopology(2)
        assert topo.edges() == {(0, 1)}

    def test_ring_edges_form_a_cycle(self):
        ring = graph(range(16), SkipRingTopology(16).ring_edges())
        stats = degree_statistics(ring)
        assert stats.num_edges == 16
        assert stats.minimum == stats.maximum == 2
        assert len(distances(ring, 0)) == len(ring)

    def test_figure1_sr16_edge_counts_per_level(self):
        # Figure 1: black ring edges (16), green level-3 (8), red level-2 (4),
        # blue level-1 (1).
        topo = SkipRingTopology(16)
        assert len(topo.ring_edges()) == 16
        by_level = topo.shortcut_edges_by_level()
        assert len(by_level[3]) == 8
        assert len(by_level[2]) == 4
        assert len(by_level[1]) == 1


class TestLemma3:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128])
    def test_worst_case_degree_bound(self, n):
        assert degree_statistics(skip_ring_graph(n)).maximum <= 2 * max_level(n)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 100, 37])
    def test_average_degree_constant(self, n):
        assert degree_statistics(skip_ring_graph(n)).mean <= 4.0

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_edge_count_powers_of_two(self, n):
        # Undirected edge count is 2n-3 for powers of two (the paper's 4n-4
        # counts two endpoints per node and level; see EXPERIMENTS.md).
        stats = degree_statistics(skip_ring_graph(n))
        assert stats.num_edges == 2 * n - 3
        assert 2 * stats.num_edges <= 4 * n - 4  # the degree sum

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_per_node_degree_formula(self, n):
        # Degree of a node with label length k is at most 2(log n - k + 1).
        topo = SkipRingTopology(n)
        for node, neighbours in graph(range(n), topo.edges()).items():
            k = label_length(topo.labels[node])
            assert len(neighbours) <= 2 * (max_level(n) - k + 1)

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64, 128])
    def test_diameter_logarithmic(self, n):
        assert diameter(skip_ring_graph(n)) <= max_level(n) + 1

    @pytest.mark.parametrize("n", [5, 9, 23, 48])
    def test_graph_connected_for_any_n(self, n):
        adj = skip_ring_graph(n)
        assert len(distances(adj, 0)) == len(adj)


class TestExpectedState:
    def test_expected_state_endpoints(self):
        topo = SkipRingTopology(8)
        order = topo.ring_order()
        minimum, maximum = order[0], order[-1]
        min_spec = topo.expected_subscriber_state(minimum)
        max_spec = topo.expected_subscriber_state(maximum)
        assert min_spec["left"] is None and min_spec["ring"] == maximum
        assert max_spec["right"] is None and max_spec["ring"] == minimum

    def test_expected_state_interior_nodes_have_no_ring_pointer(self):
        topo = SkipRingTopology(8)
        order = topo.ring_order()
        for node in order[1:-1]:
            spec = topo.expected_subscriber_state(node)
            assert spec["ring"] is None
            assert spec["left"] is not None and spec["right"] is not None

    def test_expected_shortcuts_reference_existing_nodes(self):
        topo = SkipRingTopology(16)
        for node in range(16):
            spec = topo.expected_subscriber_state(node)
            for label, target in spec["shortcuts"].items():
                assert topo.labels[target] == label

    @staticmethod
    def _expected_edge_set(topo):
        """The explicit edge set a legitimate run exhibits: the ring edges plus
        every node's locally computed shortcut targets (for n not a power of
        two these omit shortcuts that duplicate ring edges)."""
        edges = set(topo.ring_edges())
        for node in range(topo.n):
            for target in topo.expected_subscriber_state(node)["shortcuts"].values():
                edges.add((min(node, target), max(node, target)))
        return edges

    def test_expected_edge_set_subset_of_definition(self):
        # For powers of two the locally computable edges equal Definition 2's.
        topo = SkipRingTopology(16)
        assert self._expected_edge_set(topo) == topo.edges()

    def test_expected_edge_set_nonpower_subset(self):
        topo = SkipRingTopology(11)
        assert self._expected_edge_set(topo) <= topo.edges()

    def test_sr16_node_quarter_shortcuts_match_paper_example(self):
        # The paper's worked example: node 1/4 has shortcuts 1/8, 0, 3/8, 1/2.
        topo = SkipRingTopology(16)
        node = topo.index_by_label["01"]  # r = 1/4
        spec = topo.expected_subscriber_state(node)
        labels = set(spec["shortcuts"])
        assert labels == {"001", "0", "011", "1"}  # 1/8, 0, 3/8, 1/2

    def test_labels_map_positions(self):
        topo = SkipRingTopology(32)
        positions = [r_value(topo.labels[i]) for i in range(32)]
        assert len(set(positions)) == 32
