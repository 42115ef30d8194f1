"""The CheckTrie / CheckAndPublish / Publish reconciliation logic (Algorithm 5).

The functions here are *pure*: they take a local Patricia trie and the content
of an incoming request and return the wire-shaped values of the messages that
should be sent back — ``reply_tuples`` for one ``CheckTrie`` (empty: none) and
``caps``, one ``(tuples, prefix)`` per ``CheckAndPublish``.  The subscriber
protocol (:mod:`repro.core.subscriber`) sends them as they are; unit tests
exercise the logic directly on tries without any simulator.

This is also the wire ingress of both actions, so the *one* validator of
incoming ``tuples`` lives here (:func:`handle_check_trie`): arbitrary channel
contents (Theorem 8) are skipped item by item, never raised on.

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

from typing import List, Tuple

from repro.pubsub.patricia import PatriciaTrie, Summary
from repro.pubsub.publications import Publication

#: One ``CheckAndPublish`` to send: its ``tuples`` (2-lists, as on the wire) and ``prefix``.
Cap = Tuple[List[List[str]], str]


def handle_check_trie(trie: PatriciaTrie, tuples: object) -> Tuple[List[Summary], List[Cap]]:
    """Process the tuples of an incoming ``CheckTrie`` request.

    Returns ``(reply_tuples, caps)``; either is empty when the tries already
    agree on every queried subtree.  ``tuples`` is message content: anything
    but a list/tuple yields nothing, and an item that does not index as
    ``[0], [1]``, whose label or digest is not a ``str`` or whose label is not
    a bit string is skipped (corrupted tuple from an arbitrary initial state).
    """
    reply_tuples: List[Summary] = []
    caps: List[Cap] = []
    if not isinstance(tuples, (list, tuple)):
        return reply_tuples, caps
    for item in tuples:
        try:
            label, digest = item[0], item[1]
        except (TypeError, IndexError, KeyError):
            continue
        if not isinstance(label, str) or not isinstance(digest, str) or label.strip("01"):
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
            caps.append(([[closest.label, closest.hash]], missing_prefix))
        else:
            caps.append(([], label))
    return reply_tuples, caps


def handle_check_and_publish(
    trie: PatriciaTrie, tuples: object, prefix: object
) -> Tuple[List[Summary], List[Cap], List[Publication]]:
    """Process an incoming ``CheckAndPublish`` request.

    Internally handles the embedded ``CheckTrie`` and additionally collects
    every local publication whose key starts with ``prefix`` for delivery to
    the requester (none for a ``prefix`` that is not a bit string).
    """
    reply_tuples, caps = handle_check_trie(trie, tuples)
    if isinstance(prefix, str) and not prefix.strip("01"):
        publications = trie.publications_with_prefix(prefix)
    else:
        publications = []
    return reply_tuples, caps, publications
