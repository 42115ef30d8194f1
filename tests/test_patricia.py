"""Unit tests for the hashed Patricia trie (Section 4.2)."""

import pytest
from conftest import check_trie_invariants, trie_nodes

from repro.pubsub.hashing import leaf_hash, node_hash
from repro.pubsub.patricia import PatriciaTrie
from repro.pubsub.publications import Publication


def make_pub(key: str, publisher: int = 1) -> Publication:
    """A publication with a forced key (bypasses hashing for structural tests)."""
    return Publication(publisher=publisher, payload=key.encode(), key=key)


class TestInsertAndLookup:
    def test_empty_trie(self):
        trie = PatriciaTrie(key_bits=4)
        assert len(trie) == 0
        assert trie.root_summary() is None
        assert trie.all_publications() == []
        assert "0000" not in trie

    def test_single_publication_is_root_leaf(self):
        trie = PatriciaTrie(key_bits=4)
        assert trie.insert(make_pub("0101"))
        assert len(trie) == 1
        label, digest = trie.root_summary()
        assert label == "0101"
        assert digest == leaf_hash("0101")

    def test_duplicate_insert_is_noop(self):
        trie = PatriciaTrie(key_bits=4)
        pub = make_pub("0101")
        assert trie.insert(pub)
        assert not trie.insert(pub)
        assert len(trie) == 1

    def test_insert_rejects_wrong_key_length(self):
        trie = PatriciaTrie(key_bits=4)
        with pytest.raises(ValueError):
            trie.insert(make_pub("01"))
        with pytest.raises(ValueError):
            trie.insert(make_pub("01012"))

    def test_paper_example_structure(self):
        # Subscriber u from Figure 2: publications 000, 010, 100, 101.
        trie = PatriciaTrie(key_bits=3)
        for key in ("000", "010", "100", "101"):
            trie.insert(make_pub(key))
        root_label, root_hash = trie.root_summary()
        assert root_label == ""
        left = trie.search_node("0")
        right = trie.search_node("10")
        assert left is not None and not left.is_leaf
        assert right is not None and not right.is_leaf
        # Merkle hashes compose exactly as in the figure.
        assert left.hash == node_hash(leaf_hash("000"), leaf_hash("010"))
        assert right.hash == node_hash(leaf_hash("100"), leaf_hash("101"))
        assert root_hash == node_hash(left.hash, right.hash)

    def test_contains_by_key_and_publication(self):
        trie = PatriciaTrie(key_bits=3)
        pub = make_pub("011")
        trie.insert(pub)
        assert "011" in trie
        assert pub in trie
        assert trie.get("011") == pub
        assert trie.get("111") is None

    def test_insert_order_does_not_matter(self):
        keys = ["0000", "0001", "0110", "1011", "1111", "1000"]
        trie_a = PatriciaTrie(key_bits=4)
        trie_b = PatriciaTrie(key_bits=4)
        for key in keys:
            trie_a.insert(make_pub(key))
        for key in reversed(keys):
            trie_b.insert(make_pub(key))
        assert trie_a.root_summary() == trie_b.root_summary()
        assert trie_a.keys() == trie_b.keys()


class TestNavigation:
    def _build(self) -> PatriciaTrie:
        trie = PatriciaTrie(key_bits=3)
        for key in ("000", "010", "100", "101"):
            trie.insert(make_pub(key))
        return trie

    def test_search_node_exact(self):
        trie = self._build()
        assert trie.search_node("").label == ""
        assert trie.search_node("0").label == "0"
        assert trie.search_node("000").is_leaf
        assert trie.search_node("1") is None       # no node labelled exactly '1'
        assert trie.search_node("0101") is None

    def test_find_min_extension(self):
        trie = self._build()
        assert trie.find_min_extension("10").label == "10"
        assert trie.find_min_extension("1").label == "10"
        assert trie.find_min_extension("00").label == "000"
        assert trie.find_min_extension("11") is None

    def test_publications_with_prefix(self):
        trie = self._build()
        assert [p.key for p in trie.publications_with_prefix("10")] == ["100", "101"]
        assert [p.key for p in trie.publications_with_prefix("")] == ["000", "010", "100", "101"]
        assert trie.publications_with_prefix("11") == []

    @pytest.mark.parametrize("label", ["x", "0x", "10x", "0 ", "0002"])
    def test_a_branch_that_is_not_a_bit_finds_nothing(self, label):
        # only "0" and "1" name a child; any other character finds nothing
        trie = self._build()
        assert trie.search_node(label) is None
        assert trie.find_min_extension(label) is None

    def test_iter_nodes_counts(self):
        trie = self._build()
        nodes = list(trie_nodes(trie))
        leaves = [n for n in nodes if n.is_leaf]
        inner = [n for n in nodes if not n.is_leaf]
        assert len(leaves) == 4
        assert len(inner) == 3  # root, '0', '10'


class TestHashesAndInvariants:
    def test_root_hash_reflects_content(self):
        trie_a = PatriciaTrie(key_bits=8)
        trie_b = PatriciaTrie(key_bits=8)
        pubs = [Publication.create(1, f"p{i}".encode(), key_bits=8) for i in range(10)]
        for p in pubs:
            trie_a.insert(p)
            trie_b.insert(p)
        assert trie_a.root_summary() == trie_b.root_summary()
        trie_b.insert(Publication.create(2, b"extra", key_bits=8))
        assert trie_a.root_summary() != trie_b.root_summary()

    def test_invariants_require_both_child_slots_or_neither(self):
        trie = PatriciaTrie(key_bits=3)
        for key in ("000", "010", "100", "101"):
            trie.insert(make_pub(key))
        trie.root_summary()  # caches every hash: the check reaches the bad node first
        inner, leaf = trie.search_node("10"), trie.search_node("000")
        one, inner.one = inner.one, None
        with pytest.raises(AssertionError, match="inner node sets both"):
            check_trie_invariants(trie)
        inner.one, leaf.one = one, one
        with pytest.raises(AssertionError, match="leaf sets neither"):
            check_trie_invariants(trie)
        leaf.one = None
        check_trie_invariants(trie)

    def test_invariants_hold_after_many_inserts(self):
        trie = PatriciaTrie(key_bits=6)
        for i in range(40):
            trie.insert(Publication.create(i % 5, f"payload-{i}".encode(), key_bits=6))
        check_trie_invariants(trie)


class TestPublicationRecord:
    def test_create_and_wire_roundtrip(self):
        pub = Publication.create(7, b"hello", key_bits=16)
        wire = pub.wire
        restored = Publication.from_wire(wire)
        assert restored == pub

    def test_key_depends_on_publisher(self):
        a = Publication.create(1, b"same", key_bits=32)
        b = Publication.create(2, b"same", key_bits=32)
        assert a.key != b.key

    def test_key_length_matches_bits(self):
        pub = Publication.create(1, "text payload", key_bits=24)
        assert len(pub.key) == 24
        assert set(pub.key) <= {"0", "1"}
