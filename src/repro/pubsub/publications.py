"""The publication record exchanged between subscribers."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict

from repro.pubsub.hashing import leaf_hash as _leaf_hash, publication_key

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

    :meth:`from_wire` interns: equal wire content yields the same instance
    for as long as anything holds it, so n tries share one payload — and one
    :attr:`leaf_hash`.  Its key is only ever derived by the hash; forged
    content is different content.
    """

    publisher: int
    payload: bytes
    key: str

    @classmethod
    def create(cls, publisher: int, payload: bytes | str, key_bits: int = 16) -> "Publication":
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        return cls(publisher=publisher, payload=bytes(payload),
                   key=publication_key(publisher, payload, bits=key_bits))

    @cached_property
    def leaf_hash(self) -> str:
        """``h(key)``, the hash of this publication's leaf in any trie."""
        return _leaf_hash(self.key)

    # ---------------------------------------------------------------- wire fmt
    @cached_property
    def _wire(self) -> Dict[str, Any]:
        return {"publisher": self.publisher, "payload": self.payload.hex(),
                "key_bits": len(self.key)}

    def to_wire(self) -> Dict[str, Any]:
        """Plain-data representation for message parameters.

        Built once and shared by every message that carries this publication:
        delivered parameters are read-only by contract, do not modify it.
        """
        return self._wire

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Publication":
        ident = (int(data["publisher"]), data["payload"], int(data["key_bits"]))
        publication = _INTERNED.get(ident)
        if publication is None:
            publication = cls.create(ident[0], bytes.fromhex(ident[1]), key_bits=ident[2])
            _INTERNED[ident] = publication
        return publication

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        text = self.payload[:24]
        return f"Publication(publisher={self.publisher}, key={self.key}, payload={text!r})"
