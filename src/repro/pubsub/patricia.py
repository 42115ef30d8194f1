"""Patricia trie with Merkle-style node hashes (paper Section 4.2).

Every subscriber stores the publications it knows for a topic in a compressed
binary trie:

* Leaves correspond to publications; a leaf's label is the publication's
  ``m``-bit key ``h̄_m(publisher, payload)`` and its hash is ``h(label)``.
* Inner nodes have exactly two children; their label is the longest common
  prefix of the children's labels and their hash is
  ``h(h(child_0) ∘ h(child_1))``.

Hashes are computed when read, not when written.  Invariant: a node's cached
hash (``_hash``, which the subscriber's steady-state paths read as it is) is
either ``None`` or the Merkle hash of its current subtree; ``insert`` clears
the cache of every node it descends through, reading ``node.hash`` fills it
(recursion depth at most ``key_bits``).  A leaf is a pure function of its
publication and ``insert`` never writes to one, so the n tries holding one
interned publication share its one leaf (``Publication.leaf``, which checks
the key once) and hash it once between them.  An inner digest is computed once
per distinct child pair per process (``node_hash`` is a bounded memo: a topic's
tries converge to one set, so ~79 % of the pairs they hash repeat).  Two tries
hold the same publication set if and only if their root hashes are equal (up
to hash collisions), which is exactly the property CheckTrie relies on.
"""

from __future__ import annotations

from os.path import commonprefix  # character-wise, works on any strings
from typing import Dict, Iterator, KeysView, List, Optional, Tuple

from repro.pubsub.hashing import leaf_hash, node_hash
from repro.pubsub.publications import Publication

Summary = Tuple[str, str]  # (node label, node hash)


class TrieNode:
    """A node of the Patricia trie.

    ``label`` is the full prefix from the root (not the edge label), matching
    the paper's convention where ``CheckTrie`` messages carry full labels;
    ``value`` holds its bits as an ``int``, so a split point is one XOR.
    """

    __slots__ = ("label", "value", "children", "publication", "_hash")

    def __init__(self, label: str, value: int, publication: Optional[Publication] = None) -> None:
        self.label = label
        self.value = value
        self.children: Dict[str, "TrieNode"] = {}
        self.publication = publication
        self._hash: Optional[str] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def hash(self) -> str:
        """Merkle hash of this subtree; computed on the first read after a change below."""
        digest = self._hash
        if digest is None:
            children = self.children
            digest = self._hash = (node_hash(children["0"].hash, children["1"].hash)
                                   if children else leaf_hash(self.label))
        return digest

    def child_summaries(self) -> List[Summary]:
        """Summaries of the two children in trie order ('0' child first)."""
        left, right = self.children["0"], self.children["1"]
        return [(left.label, left.hash), (right.label, right.hash)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "inner"
        return f"TrieNode({kind}, label={self.label!r})"


class PatriciaTrie:
    """Set of publications addressable by their binary keys."""

    def __init__(self, key_bits: int = 64) -> None:
        if key_bits < 1:
            raise ValueError("key_bits must be positive")
        self.key_bits = key_bits
        self.root: Optional[TrieNode] = None
        self._by_key: Dict[str, Publication] = {}  # the subscriber's ingress reads it as is

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, item: object) -> bool:
        key = item.key if isinstance(item, Publication) else item
        return isinstance(key, str) and key in self._by_key

    def keys(self) -> List[str]:
        return sorted(self._by_key)

    def key_set(self) -> KeysView[str]:
        """The stored keys as a live set-like view: neither sorted nor copied."""
        return self._by_key.keys()

    def get(self, key: str) -> Optional[Publication]:
        return self._by_key.get(key)

    def all_publications(self) -> List[Publication]:
        return [self._by_key[k] for k in sorted(self._by_key)]

    def root_summary(self) -> Optional[Summary]:
        """``(label, hash)`` of the root, or ``None`` for an empty trie."""
        root = self.root
        return None if root is None else (root.label, root.hash)

    # ------------------------------------------------------------ navigation
    def search_node(self, label: str) -> Optional[TrieNode]:
        """The trie node whose label equals ``label`` exactly, or ``None``."""
        node = self.root
        while node is not None:
            if node.label == label:
                return node
            if not label.startswith(node.label):
                # Also the case when node.label is as long or longer: `label`
                # would sit above or beside it; no exact node exists.
                return None
            branch = label[len(node.label)]
            node = node.children.get(branch)
        return None

    def find_min_extension(self, prefix: str) -> Optional[TrieNode]:
        """The node ``c`` with minimal ``|c.label|`` such that ``prefix`` is a
        prefix of ``c.label`` (paper case (iii) of CheckTrie)."""
        node = self.root
        while node is not None:
            if node.label.startswith(prefix):
                return node
            if not prefix.startswith(node.label):
                return None
            branch = prefix[len(node.label)]
            node = node.children.get(branch)
        return None

    def publications_with_prefix(self, prefix: str) -> List[Publication]:
        """All stored publications whose key starts with ``prefix``."""
        start = self.find_min_extension(prefix)
        if start is None:
            return []
        out: List[Publication] = []
        stack = [start]
        while stack:
            node = stack.pop()
            if node.children:
                # The '0' subtree is popped, and finished, first: key order.
                stack += (node.children["1"], node.children["0"])
            elif node.publication is not None:
                out.append(node.publication)
        return out

    def iter_nodes(self) -> Iterator[TrieNode]:
        stack = [] if self.root is None else [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    # ---------------------------------------------------------------- updates
    def insert(self, publication: Publication) -> bool:
        """Insert ``publication``; returns True if the trie changed.

        Keys must have exactly ``key_bits`` bits.  Publications are never
        removed (the paper's protocol never deletes publications), so the trie
        only grows.
        """
        key = publication.key
        if key in self._by_key:
            return False  # and valid: it was checked when it was stored
        bits = self.key_bits
        if len(key) != bits:
            raise ValueError(f"publication key {key!r} is not a {bits}-bit binary string")
        new_leaf = publication.leaf  # raises unless the key is a bit string
        self._by_key[key] = publication
        node = self.root
        if node is None:
            self.root = new_leaf
            return True

        # Walk down while node.label is a proper prefix of key; every node
        # passed gets a new descendant, so its cached hash is now stale.
        parent: Optional[TrieNode] = None
        label = node.label
        while node.children and key.startswith(label):
            node._hash = None
            parent = node
            node = node.children[key[len(label)]]
            label = node.label
        # Split above `node`: a new inner node holds the diverging children.
        # Their common prefix ends at the highest bit the two labels differ in
        # (`label` is not empty: the descent passes every prefix of `key`).
        width = len(label)
        common = width - ((new_leaf.value >> (bits - width)) ^ node.value).bit_length()
        inner = TrieNode(key[:common], new_leaf.value >> (bits - common))
        inner.children[label[common]] = node
        inner.children[key[common]] = new_leaf
        if parent is None:
            self.root = inner
        else:
            parent.children[key[len(parent.label)]] = inner
        return True

    # ------------------------------------------------------------ validation
    def check_invariants(self) -> None:
        """Raise AssertionError if structural invariants are violated.

        Used by property-based tests: every inner node has exactly two
        children whose labels extend the parent's label and diverge on the
        next bit; every leaf label has ``key_bits`` bits; hashes are
        consistent with the Merkle rule; ``value`` holds each label's bits.
        """
        uncached = node_hash.__wrapped__  # the memo must not check itself
        for node in self.iter_nodes():
            assert node.value == int(node.label or "0", 2), "value is not the label's bits"
            if node.is_leaf:
                assert len(node.label) == self.key_bits, "leaf label has wrong length"
                assert node.publication is not None, "leaf without publication"
                assert node.hash == leaf_hash(node.label), "stale leaf hash"
            else:
                assert node.children.keys() == {"0", "1"}, "inner node children must be 0 and 1"
                for bit, child in node.children.items():
                    assert child.label.startswith(node.label), "child label must extend parent"
                    assert child.label[len(node.label)] == bit, "child stored under wrong bit"
                left, right = node.children["0"], node.children["1"]
                assert node.hash == uncached(left.hash, right.hash), "stale inner hash"
                assert node.label == commonprefix((left.label, right.label)), (
                    "inner label must be the LCP of its children")

