"""Unit tests for the local shortcut-label computation (Section 3.2.2)."""

import pytest

from repro.core.labels import max_level
from repro.core.shortcuts import MAX_STEPS, shortcut_labels, shortcut_labels_from_neighbor
from repro.core.skip_ring import SkipRingTopology
from test_properties import shortcut_labels_closed_form  # the test-side reference


class TestPaperExample:
    def test_quarter_node_from_left_neighbor(self):
        # Paper example: v = 1/4 ('01'), left neighbour 3/16 ('0011')
        # -> shortcuts 1/8 ('001') then 0 ('0').
        assert shortcut_labels_from_neighbor("01", "0011") == ["001", "0"]

    def test_quarter_node_from_right_neighbor(self):
        # right neighbour 5/16 ('0101') -> 3/8 ('011') then 1/2 ('1').
        assert shortcut_labels_from_neighbor("01", "0101") == ["011", "1"]

    def test_quarter_node_combined(self):
        assert shortcut_labels("01", "0011", "0101") == {"001", "0", "011", "1"}

    def test_zero_node_wraps_around(self):
        # v = 0, left neighbour 15/16 ('1111'): reflections 7/8, 3/4, 1/2.
        assert shortcut_labels_from_neighbor("0", "1111") == ["111", "11", "1"]

    def test_no_shortcuts_when_neighbor_not_deeper(self):
        # A node at the deepest level derives nothing from its neighbours.
        assert shortcut_labels_from_neighbor("0011", "01") == []
        assert shortcut_labels("1111", "111", "0") == set()


class TestRobustness:
    def test_handles_missing_neighbors(self):
        assert shortcut_labels("01", None, None) == set()
        assert shortcut_labels_from_neighbor("01", None) == []

    def test_handles_invalid_labels(self):
        assert shortcut_labels("01", "xyz", None) == set()
        assert shortcut_labels_from_neighbor("bad", "0011") == []

    def test_own_label_never_included(self):
        for n in (8, 16, 32):
            topo = SkipRingTopology(n)
            for node in range(n):
                spec = topo.expected_subscriber_state(node)
                assert topo.labels[node] not in spec["shortcuts"]

    def test_max_steps_guards_against_huge_labels(self):
        # A corrupted, very long neighbour label must not loop forever.
        crazy = "0" * 200 + "1"
        result = shortcut_labels_from_neighbor("0", crazy)
        assert len(result) == MAX_STEPS


class TestClosedFormEquivalence:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_recursion_equals_closed_form_in_legitimate_state(self, n):
        topo = SkipRingTopology(n)
        top = max_level(n)
        for node in range(n):
            own = topo.labels[node]
            # reconstruct ring neighbour labels exactly as the protocol sees them
            order = topo.ring_order()
            pos = order.index(node)
            left_label = topo.labels[order[pos - 1]]
            right_label = topo.labels[order[(pos + 1) % n]]
            recursion = shortcut_labels(own, left_label, right_label)
            closed = shortcut_labels_closed_form(own, top)
            assert recursion == closed, f"mismatch for node {node} (n={n})"

    def test_closed_form_rejects_invalid(self):
        assert shortcut_labels_closed_form("", 4) == set()
