"""The publication record exchanged between subscribers."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict

from repro.pubsub.hashing import publication_key

# Wire content -> the one live Publication derived from it.  Weak, so it holds
# nothing that a trie or an in-flight handler does not already hold.
_INTERNED: "weakref.WeakValueDictionary[tuple, Publication]" = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Publication:
    """A single published item.

    Attributes
    ----------
    publisher:
        Node id of the subscriber that issued the publication.
    payload:
        The published content (bytes).
    key:
        The ``m``-bit trie key ``h̄_m(publisher, payload)`` as a '0'/'1'
        string.  It is derived deterministically, so any subscriber that
        receives ``(publisher, payload)`` reconstructs the same key.

    :meth:`create` and :meth:`from_wire` intern: equal content yields the
    same instance for as long as anything holds it, so n tries share one
    payload — one trie :attr:`leaf` and one wire dict.  The key is only ever
    derived by the hash.  The wire carries it too, but a receiver trusts it
    only to find a stored copy, and drops the message only if that copy's
    wire is, or equals, the one received: forged content is other content.
    """

    publisher: int
    payload: bytes
    key: str

    @classmethod
    def create(cls, publisher: int, payload: bytes | str, key_bits: int = 16) -> "Publication":
        payload = payload.encode("utf-8") if isinstance(payload, str) else bytes(payload)
        return cls.from_wire(dict(publisher=publisher, payload=payload.hex(), key_bits=key_bits))

    @cached_property
    def leaf(self):
        """This publication's :class:`~repro.pubsub.patricia.TrieNode`, shared by
        every trie that stores it (so its hash ``h(key)`` is taken once)."""
        from repro.pubsub.patricia import TrieNode  # which imports this module
        return TrieNode(self.key, self)

    # ---------------------------------------------------------------- wire fmt
    @cached_property
    def wire(self) -> Dict[str, Any]:
        """Plain-data representation for message parameters, built once and
        shared by every message that carries this publication: read-only."""
        return {"publisher": self.publisher, "payload": self.payload.hex(),
                "key_bits": len(self.key), "key": self.key}

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Publication":
        ident = (int(data["publisher"]), data["payload"], int(data["key_bits"]))
        publication = _INTERNED.get(ident)
        if publication is None:
            payload = bytes.fromhex(ident[1])
            publication = _INTERNED[ident] = cls(
                ident[0], payload, publication_key(ident[0], payload, bits=ident[2]))
        return publication

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        text = self.payload[:24]
        return f"Publication(publisher={self.publisher}, key={self.key}, payload={text!r})"
