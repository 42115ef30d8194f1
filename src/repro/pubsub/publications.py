"""The publication record exchanged between subscribers."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict

from repro.pubsub.hashing import publication_key

# Wire content -> a weak reference to the one live Publication derived from it,
# and ``id()`` of that publication's own wire dict -> the same reference
# (``_forget`` drops both entries with it): plain dicts, so a hit runs no Python
# code.  An id is unique while its dict lives, and the publication holds its wire.
_INTERNED: "Dict[tuple, weakref.KeyedRef]" = {}
_BY_WIRE: "Dict[int, weakref.KeyedRef]" = {}


def _forget(ref: "weakref.KeyedRef") -> None:
    ident, wire_id = ref.key
    if _INTERNED.get(ident) is ref:  # not since replaced by a new instance
        del _INTERNED[ident]
    if _BY_WIRE.get(wire_id) is ref:
        del _BY_WIRE[wire_id]


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
    payload — one trie :attr:`leaf` and one wire dict.  An interned
    publication's own :attr:`wire` resolves to it by identity, with nothing
    parsed or looked up by content; any other dict, a copy included, is
    parsed and validated.  The key is only ever derived by the hash.  The
    wire carries it too, but a receiver trusts it only to find a stored
    copy, and drops the message only if that copy's wire is, or equals, the
    one received: forged content is other content.
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
        """This publication's :class:`~repro.pubsub.patricia.TrieNode`, shared by every
        trie that stores it: ``h(key)`` is taken, and the key's bits checked, once."""
        from repro.pubsub.patricia import TrieNode  # which imports this module
        if self.key.strip("01"):
            raise ValueError(f"publication key {self.key!r} is not a binary string")
        return TrieNode(self.key, int(self.key, 2), self)

    # ---------------------------------------------------------------- wire fmt
    @cached_property
    def wire(self) -> Dict[str, Any]:
        """Plain-data representation for message parameters, built once and
        shared by every message that carries this publication: read-only."""
        return {"publisher": self.publisher, "payload": self.payload.hex(),
                "key_bits": len(self.key), "key": self.key}

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Publication":
        if ((ref := _BY_WIRE.get(id(data))) is not None
                and (publication := ref()) is not None and publication.wire is data):
            return publication  # an interned publication's own wire
        ident = (int(data["publisher"]), data["payload"], int(data["key_bits"]))
        publication = ref() if (ref := _INTERNED.get(ident)) is not None else None
        if publication is None:
            payload = bytes.fromhex(ident[1])
            publication = cls(ident[0], payload, publication_key(ident[0], payload, bits=ident[2]))
            wire_id = id(publication.wire)
            _INTERNED[ident] = _BY_WIRE[wire_id] = weakref.KeyedRef(
                publication, _forget, (ident, wire_id))
        return publication
