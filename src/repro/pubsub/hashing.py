"""Hash functions for publication keys and Patricia-trie node hashes.

The paper uses two collision-resistant hash functions:

* ``h̄_m : N × P* → {0,1}^m`` maps a pair (publisher id, publication payload)
  to an ``m``-bit *key* that labels the publication's leaf in the Patricia
  trie; every key has the same length ``m``.
* ``h : {0,1}* → {0,1}*`` hashes node labels (for leaves) and concatenations
  of child hashes (for inner nodes), Merkle-tree style.

Cryptographic one-wayness is explicitly *not* required (the scheme is not
meant to be secure against forgery, only to detect differences), so we use
truncated SHA-256, which is deterministic across processes and runs.

``node_hash`` is pure, so it is memoized: a digest is computed once per
distinct child pair per process.  A topic's tries converge to one set (Thm 17):
flooding 96 publications to 128 members, 79 % of the pairs are repeats; a
4 096-entry bound keeps that rate (1 024 entries: 75 %; unbounded: 79 %).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Union

BytesLike = Union[bytes, bytearray, str]


def _to_bytes(data: BytesLike) -> bytes:
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


def publication_key(publisher_id: int, payload: BytesLike, bits: int = 16) -> str:
    """``h̄_m(publisher_id, payload)``: the ``bits``-long binary key of a
    publication, returned as a '0'/'1' string.

    The publisher id participates in the hash so two subscribers publishing
    identical payloads still produce distinct keys (as in the paper, where the
    pair ``(v.id, p)`` is hashed).
    """
    if bits < 1:
        raise ValueError("key length must be positive")
    digest = hashlib.sha256(b"key|%d|" % publisher_id + _to_bytes(payload)).digest()
    as_int = int.from_bytes(digest, "big")
    # Take the top `bits` bits of the digest.
    top = as_int >> (len(digest) * 8 - bits)
    return format(top, f"0{bits}b")


def leaf_hash(label: str) -> str:
    """``h(t.label)`` for a leaf node ``t`` (hex string)."""
    return hashlib.sha256(b"leaf|" + label.encode("ascii")).hexdigest()


@lru_cache(maxsize=4096)
def node_hash(child_hash_left: str, child_hash_right: str) -> str:
    """``h(h(c1) ∘ h(c2))`` for an inner node (hex string).

    The children are passed in trie order (the '0' child first), so the hash
    depends on the full structure exactly as in a Merkle hash tree.
    """
    data = b"node|" + child_hash_left.encode("ascii") + b"|" + child_hash_right.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def ring_position(data: BytesLike, salt: BytesLike = b"") -> int:
    """Deterministic 64-bit position on the consistent-hash ring.

    Used by :mod:`repro.cluster.sharding` to place both shard virtual nodes
    and topic keys on the same ``[0, 2^64)`` ring.  Like the other hashes in
    this module it is truncated SHA-256: deterministic across processes and
    runs, with no cryptographic claims.
    """
    digest = hashlib.sha256(b"ring|" + _to_bytes(salt) + b"|" + _to_bytes(data)).digest()
    return int.from_bytes(digest[:8], "big")
