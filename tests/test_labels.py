"""Unit tests for the label algebra (paper Section 2.1)."""

from fractions import Fraction

import pytest
from conftest import label_from_r

from repro.core.labels import (
    count_labels_of_length,
    index_of,
    is_canonical_label,
    is_valid_label,
    label_length,
    label_of,
    labels_up_to,
    max_level,
    r_float,
    r_value,
    ring_key,
)


class TestLabelFunction:
    def test_first_labels_match_paper_sequence(self):
        # "Labels are generated in the order: 0, 1, 01, 11, 001, 011, 101, 111, 0001..."
        expected = ["0", "1", "01", "11", "001", "011", "101", "111", "0001"]
        assert [label_of(i) for i in range(9)] == expected

    def test_label_of_rejects_negative(self):
        with pytest.raises(ValueError):
            label_of(-1)

    def test_labels_are_unique(self):
        labels = [label_of(i) for i in range(512)]
        assert len(set(labels)) == 512

    def test_index_of_inverts_label_of(self):
        for i in range(200):
            assert index_of(label_of(i)) == i

    def test_index_of_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            index_of("10")  # does not end in '1' and is not '0'

    def test_index_of_rejects_garbage(self):
        with pytest.raises(ValueError):
            index_of("abc")

    def test_label_lengths_grow_logarithmically(self):
        assert label_length(label_of(0)) == 1
        assert label_length(label_of(1)) == 1
        assert label_length(label_of(2)) == 2
        assert label_length(label_of(4)) == 3
        assert label_length(label_of(255)) == 8
        assert label_length(label_of(256)) == 9


class TestRValue:
    def test_figure1_values(self):
        # Figure 1 of the paper lists r(l(x)) for x = 0..15.
        expected = [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                    Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8),
                    Fraction(1, 16), Fraction(3, 16), Fraction(5, 16), Fraction(7, 16),
                    Fraction(9, 16), Fraction(11, 16), Fraction(13, 16), Fraction(15, 16)]
        assert [r_value(label_of(x)) for x in range(16)] == expected

    def test_r_value_in_unit_interval(self):
        for i in range(100):
            assert 0 <= r_value(label_of(i)) < 1

    def test_r_float_matches_fraction(self):
        assert r_float("101") == pytest.approx(0.625)

    def test_label_from_r_roundtrip(self):
        for i in range(128):
            label = label_of(i)
            assert label_from_r(r_value(label)) == label

    def test_label_from_r_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            label_from_r(Fraction(1, 3))

    def test_label_from_r_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            label_from_r(Fraction(3, 2))

    def test_new_labels_bisect_existing_gaps(self):
        # For x in {2^d, ..., 2^{d+1}-1} the value r(l(x)) falls halfway between
        # previously used positions (the property behind Theorem 7).
        for d in range(1, 6):
            old = sorted(r_value(label_of(x)) for x in range(2 ** d))
            old.append(Fraction(1))
            for x in range(2 ** d, 2 ** (d + 1)):
                new = r_value(label_of(x))
                # find enclosing old pair
                for low, high in zip(old, old[1:]):
                    if low < new < high:
                        assert new - low == high - new
                        break
                else:  # pragma: no cover - would mean the bisection property broke
                    pytest.fail(f"r(l({x})) not strictly inside an old gap")


class TestComparisons:
    def test_ring_key_order_matches_figure1_ring_order(self):
        labels = labels_up_to(8)
        assert sorted(labels, key=ring_key) == ["0", "001", "01", "011", "1", "101", "11", "111"]


class TestHelpers:
    def test_is_valid_label(self):
        assert is_valid_label("0101")
        assert not is_valid_label("")
        assert not is_valid_label("012")
        assert not is_valid_label(None)
        assert not is_valid_label(7)

    def test_is_canonical_label(self):
        assert is_canonical_label("0")
        assert is_canonical_label("011")
        assert not is_canonical_label("010")

    def test_max_level(self):
        assert max_level(1) == 1
        assert max_level(2) == 1
        assert max_level(3) == 2
        assert max_level(16) == 4
        assert max_level(17) == 5
        with pytest.raises(ValueError):
            max_level(0)

    def test_count_labels_of_length_full_levels(self):
        assert count_labels_of_length(1) == 2
        assert count_labels_of_length(2) == 2
        assert count_labels_of_length(3) == 4
        assert count_labels_of_length(5) == 16

    def test_count_labels_of_length_restricted(self):
        # n = 6 -> labels l(0..5) with lengths 1,1,2,2,3,3
        assert count_labels_of_length(1, 6) == 2
        assert count_labels_of_length(2, 6) == 2
        assert count_labels_of_length(3, 6) == 2
        assert count_labels_of_length(4, 6) == 0

    def test_count_labels_of_length_sums_to_n(self):
        for n in (1, 2, 5, 16, 33, 100):
            total = sum(count_labels_of_length(k, n) for k in range(1, max_level(n) + 2))
            assert total == n

    def test_labels_up_to(self):
        assert labels_up_to(0) == []
        assert labels_up_to(3) == ["0", "1", "01"]
