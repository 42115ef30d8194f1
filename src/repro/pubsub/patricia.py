"""Patricia trie with Merkle-style node hashes (paper Section 4.2).

Every subscriber stores the publications it knows for a topic in a compressed
binary trie:

* Leaves correspond to publications; a leaf's label is the publication's
  ``m``-bit key ``h̄_m(publisher, payload)`` and its hash is ``h(label)``.
* Inner nodes have exactly two children, in the slots ``zero`` and ``one``
  (an insert allocates one object, no dict: see :class:`TrieNode`); their label
  is the children's longest common prefix, their hash ``h(h(child_0) ∘ h(child_1))``.

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

from typing import Dict, Iterator, KeysView, List, Optional, Tuple

from repro.pubsub.hashing import leaf_hash, node_hash
from repro.pubsub.publications import Publication

Summary = Tuple[str, str]  # (node label, node hash)


class TrieNode:
    """A node of the Patricia trie.

    ``label`` is the full prefix from the root (not the edge label), matching
    the paper's convention where ``CheckTrie`` messages carry full labels;
    ``value`` holds its bits as an ``int``, so a split point is one XOR.
    The children are two slots, not a dict: an inner node sets both ``zero``
    and ``one``, a leaf neither.  On 64-bit CPython 3.11 a node is one 80-byte
    object, not 72 bytes plus a 184-byte GC-tracked dict: an insert allocates
    one object for the collector to scan, and a descent reads a slot.
    """

    __slots__ = ("label", "value", "zero", "one", "publication", "_hash")

    def __init__(self, label: str, value: int, publication: Optional[Publication] = None) -> None:
        self.label = label
        self.value = value
        self.zero: Optional[TrieNode] = None
        self.one: Optional[TrieNode] = None
        self.publication = publication
        self._hash: Optional[str] = None

    @property
    def is_leaf(self) -> bool:
        return self.zero is None

    @property
    def hash(self) -> str:
        """Merkle hash of this subtree; computed on the first read after a change below."""
        digest = self._hash
        if digest is None:
            zero = self.zero
            digest = self._hash = (leaf_hash(self.label) if zero is None
                                   else node_hash(zero.hash, self.one.hash))
        return digest

    def child_summaries(self) -> List[Summary]:
        """Summaries of the two children in trie order ('0' child first)."""
        left, right = self.zero, self.one
        return [(left.label, left.hash), (right.label, right.hash)]


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
            branch = label[len(node.label)]  # a character that is not a bit finds nothing
            node = node.zero if branch == "0" else node.one if branch == "1" else None
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
            node = node.zero if branch == "0" else node.one if branch == "1" else None
        return None

    def publications_with_prefix(self, prefix: str) -> List[Publication]:
        """All stored publications whose key starts with ``prefix``, in key order."""
        start = self.find_min_extension(prefix)
        return [] if start is None else [n.publication for n in _subtree(start) if n.zero is None]

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
        while node.zero is not None and key.startswith(label):
            node._hash = None
            parent = node
            node = node.one if key[len(label)] == "1" else node.zero
            label = node.label
        # Split above `node`: a new inner node holds the diverging children.
        # Their common prefix ends at the highest bit the two labels differ in
        # (`label` is not empty: the descent passes every prefix of `key`).
        width = len(label)
        common = width - ((new_leaf.value >> (bits - width)) ^ node.value).bit_length()
        inner = TrieNode(key[:common], new_leaf.value >> (bits - common))
        inner.zero, inner.one = (node, new_leaf) if key[common] == "1" else (new_leaf, node)
        if parent is None:
            self.root = inner
        elif parent.zero is node:
            parent.zero = inner
        else:
            parent.one = inner
        return True


def _subtree(node: TrieNode) -> Iterator[TrieNode]:
    """``node`` and its descendants, parents first and '0' subtrees first (key order)."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if node.zero is not None:
            stack += (node.one, node.zero)
