"""The CheckTrie / CheckAndPublish / Publish reconciliation logic (Algorithm 5).

The functions here are *pure*: they take a local Patricia trie and the content
of an incoming request and return descriptors of the messages that should be
sent back.  The subscriber protocol (:mod:`repro.core.subscriber`) turns those
descriptors into actual messages; unit tests exercise the logic directly on
tries without any simulator.

Protocol recap (subscriber ``u`` receives a request from ``v``):

* ``CheckTrie(v, tuples)`` — for each ``(label, hash)`` tuple:

  1. ``u`` has a node with that exact label and equal hash → subtries equal,
     no response.
  2. ``u`` has the node but the hash differs (inner node) → reply with a
     ``CheckTrie`` carrying both children's ``(label, hash)`` summaries, which
     recursively narrows down the difference.
  3. ``u`` has no node with that label → some publications are missing from
     ``u.T``; ``u`` asks ``v`` to keep checking the closest existing subtree
     and to deliver the publications ``u`` can prove it is missing
     (``CheckAndPublish``).

* ``CheckAndPublish(v, tuples, prefix)`` — handle ``tuples`` as above and
  additionally send every locally stored publication whose key starts with
  ``prefix`` back to ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.pubsub.patricia import PatriciaTrie, Summary
from repro.pubsub.publications import Publication


@dataclass
class CheckTrieRequest:
    """Content of a ``CheckTrie`` message."""

    tuples: List[Summary] = field(default_factory=list)

    def to_wire(self) -> List[Tuple[str, str]]:
        return [(label, digest) for label, digest in self.tuples]


@dataclass
class CheckAndPublishRequest:
    """Content of a ``CheckAndPublish`` message."""

    tuples: List[Summary] = field(default_factory=list)
    prefix: str = ""

    def to_wire(self) -> dict:
        return {"tuples": [(lbl, h) for lbl, h in self.tuples], "prefix": self.prefix}


@dataclass
class PublishRequest:
    """Content of a ``Publish`` message (bulk delivery of publications)."""

    publications: List[Publication] = field(default_factory=list)

    def to_wire(self) -> List[dict]:
        return [p.to_wire() for p in self.publications]


def initial_check_trie(trie: PatriciaTrie) -> Optional[CheckTrieRequest]:
    """The request a subscriber initiates on Timeout: its root summary.

    Subscribers with an empty trie have nothing to offer and stay silent; they
    still learn missing publications when a neighbour's request reaches them.
    """
    summary = trie.root_summary()
    if summary is None:
        return None
    return CheckTrieRequest(tuples=[summary])


def handle_check_trie(
    trie: PatriciaTrie, tuples: List[Summary]
) -> Tuple[Optional[CheckTrieRequest], List[CheckAndPublishRequest]]:
    """Process the tuples of an incoming ``CheckTrie`` request.

    Returns ``(check_trie_reply, check_and_publish_replies)``; either may be
    empty/None when the tries already agree on every queried subtree.
    """
    reply_tuples: List[Summary] = []
    cap_replies: List[CheckAndPublishRequest] = []
    for label, digest in tuples:
        if not isinstance(label, str) or label.strip("01"):
            # Corrupted tuple from an arbitrary initial state: ignore.
            continue
        node = trie.search_node(label)
        if node is not None:
            if node.hash != digest and not node.is_leaf:
                reply_tuples.extend(node.child_summaries())
            # Equal hashes (or a leaf with the same full-length label): the
            # subtries are identical, nothing to do.
            continue
        # Case (iii): we do not have this subtree at all.
        closest = trie.find_min_extension(label)
        if closest is not None and len(closest.label) > len(label):
            diverging_bit = closest.label[len(label)]
            missing_prefix = label + ("1" if diverging_bit == "0" else "0")
            cap_replies.append(
                CheckAndPublishRequest(tuples=[(closest.label, closest.hash)],
                                       prefix=missing_prefix))
        else:
            cap_replies.append(CheckAndPublishRequest(tuples=[], prefix=label))
    reply = CheckTrieRequest(tuples=reply_tuples) if reply_tuples else None
    return reply, cap_replies


def handle_check_and_publish(
    trie: PatriciaTrie, tuples: List[Summary], prefix: str
) -> Tuple[Optional[CheckTrieRequest], List[CheckAndPublishRequest], PublishRequest]:
    """Process an incoming ``CheckAndPublish`` request.

    Internally handles the embedded ``CheckTrie`` and additionally collects
    every local publication whose key starts with ``prefix`` for delivery to
    the requester.
    """
    reply, cap_replies = handle_check_trie(trie, tuples)
    if isinstance(prefix, str) and not prefix.strip("01"):
        to_publish = trie.publications_with_prefix(prefix)
    else:
        to_publish = []
    return reply, cap_replies, PublishRequest(publications=to_publish)


def reconcile_once(source: PatriciaTrie, target: PatriciaTrie, max_rounds: int = 10_000) -> int:
    """Synchronously run the reconciliation between two tries until quiescent.

    This drives the same message logic as the asynchronous protocol but in a
    simple request/response loop.  It is used by unit/property tests to show
    the exchange converges (both tries end up with the union of publications
    that the *initiating* side can learn, per the paper's example: which side
    initiates matters).  Returns the number of message exchanges performed.
    """
    exchanges = 0
    # Pending requests are tuples (direction, kind, payload); direction True
    # means the request travels from `source` to `target`.
    pending: List[Tuple[bool, str, object]] = []
    init = initial_check_trie(source)
    if init is not None:
        pending.append((True, "check", init.tuples))
    while pending and exchanges < max_rounds:
        towards_target, kind, payload = pending.pop(0)
        local = target if towards_target else source
        exchanges += 1
        if kind == "check":
            reply, caps = handle_check_trie(local, payload)  # type: ignore[arg-type]
        else:
            tuples, prefix = payload  # type: ignore[misc]
            reply, caps, pubs = handle_check_and_publish(local, tuples, prefix)
            receiver = source if towards_target else target
            receiver.insert_all(pubs.publications)
        if reply is not None:
            pending.append((not towards_target, "check", reply.tuples))
        for cap in caps:
            pending.append((not towards_target, "cap", (cap.tuples, cap.prefix)))
    return exchanges
