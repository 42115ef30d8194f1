"""Unit tests for the CheckTrie/CheckAndPublish reconciliation (Algorithm 5)."""

from typing import List, Tuple

from repro.pubsub.antientropy import handle_check_and_publish, handle_check_trie
from repro.pubsub.patricia import PatriciaTrie
from repro.pubsub.publications import Publication
from repro.workloads.initial_states import FORGED


def make_pub(key: str, publisher: int = 1) -> Publication:
    return Publication(publisher=publisher, payload=key.encode(), key=key)


def build(keys, bits=3) -> PatriciaTrie:
    trie = PatriciaTrie(key_bits=bits)
    for key in keys:
        trie.insert(make_pub(key))
    return trie


def reconcile_once(source: PatriciaTrie, target: PatriciaTrie, max_rounds: int = 10_000) -> int:
    """Synchronously run the reconciliation between two tries until quiescent.

    A test-only oracle (``tests/test_properties.py`` imports it from here): it
    drives the same message logic as the asynchronous protocol in a simple
    request/response loop, to show the exchange converges (both tries end up with the union of
    publications that the *initiating* side can learn, per the paper's
    example: which side initiates matters).  Returns the number of message
    exchanges performed.
    """
    exchanges = 0
    # Pending requests are (direction, tuples, prefix); direction True means
    # the request travels from `source` to `target`, prefix None a CheckTrie.
    pending: List[Tuple[bool, list, object]] = []
    summary = source.root_summary()
    if summary is not None:
        pending.append((True, [summary], None))
    while pending and exchanges < max_rounds:
        towards_target, tuples, prefix = pending.pop(0)
        local = target if towards_target else source
        exchanges += 1
        if prefix is None:
            reply_tuples, caps = handle_check_trie(local, tuples)
        else:
            reply_tuples, caps, publications = handle_check_and_publish(local, tuples, prefix)
            receiver = source if towards_target else target
            for publication in publications:
                receiver.insert(publication)
        if reply_tuples:
            pending.append((not towards_target, reply_tuples, None))
        for cap_tuples, cap_prefix in caps:
            pending.append((not towards_target, cap_tuples, cap_prefix))
    return exchanges


class TestInitialRequest:
    # What a subscriber's Timeout sends (``TopicView._anti_entropy_round``).
    def test_empty_trie_initiates_nothing(self):
        assert PatriciaTrie(key_bits=3).root_summary() is None

    def test_non_empty_trie_sends_root(self):
        trie = build(["000", "010"])
        assert trie.root_summary() == (trie.root.label, trie.root.hash)


class TestHandleCheckTrie:
    def test_equal_subtries_produce_no_response(self):
        trie = build(["000", "010", "100"])
        other = build(["000", "010", "100"])
        reply, caps = handle_check_trie(trie, [other.root_summary()])
        assert reply == [] and caps == []

    def test_differing_inner_hash_descends_into_children(self):
        # Paper's Figure 2 walk-through, step 1: v receives u's root, sees the
        # hashes differ and replies with its own two children (labels 0 and 100).
        u = build(["000", "010", "100", "101"])
        v = build(["000", "010", "100"])
        reply, caps = handle_check_trie(v, [u.root_summary()])
        assert caps == []
        labels = [label for label, _ in reply]
        assert labels == ["0", "100"]

    def test_missing_subtree_triggers_check_and_publish(self):
        # Figure 2, step 2: v lacks a node labelled '10'; it answers with
        # CheckAndPublish asking for prefix '101' while rechecking '100'.
        u = build(["000", "010", "100", "101"])
        v = build(["000", "010", "100"])
        _, caps = handle_check_trie(v, [(u.search_node("10").label, u.search_node("10").hash)])
        assert len(caps) == 1
        tuples, prefix = caps[0]
        assert prefix == "101"
        assert tuples == [["100", v.search_node("100").hash]]

    def test_totally_missing_prefix_requests_everything_below_it(self):
        v = build(["000"])
        reply, caps = handle_check_trie(v, [("11", "whatever")])
        assert reply == []
        assert caps == [([], "11")]

    def test_empty_local_trie_requests_full_subtree(self):
        empty = PatriciaTrie(key_bits=3)
        _, caps = handle_check_trie(empty, [("", "roothash")])
        assert caps == [([], "")]

    def test_corrupted_tuples_are_ignored(self):
        trie = build(["000"])
        reply, caps = handle_check_trie(trie, [(123, "x"), ("02", "y"), ("0", 5), {}, [], 7])
        assert reply == [] and caps == []
        assert all(handle_check_trie(trie, tuples) == ([], []) for tuples in FORGED["tuples"])


class TestHandleCheckAndPublish:
    def test_delivers_publications_with_prefix(self):
        u = build(["000", "010", "100", "101"])
        reply, caps, pubs = handle_check_and_publish(
            u, [("100", u.search_node("100").hash)], "101")
        assert reply == [] and caps == []
        assert [p.key for p in pubs] == ["101"]

    def test_invalid_prefix_delivers_nothing(self):
        u = build(["000"])
        _, _, pubs = handle_check_and_publish(u, [], "10x")
        assert pubs == []

    def test_wire_formats(self):
        # What comes back is what goes on the wire: a CheckTrie's tuples are
        # (label, digest) tuples, a CheckAndPublish's are 2-lists.
        u = build(["000", "010", "100", "101"])
        v = build(["000", "010", "100"])
        reply, _ = handle_check_trie(v, [u.root_summary()])
        assert all(type(t) is tuple and len(t) == 2 for t in reply)
        _, caps = handle_check_trie(v, [("10", u.search_node("10").hash)])
        assert caps == [([["100", v.search_node("100").hash]], "101")]


class TestReconcileOnce:
    def test_initiator_learns_about_missing_content(self):
        # Figure 2 semantics: when v (missing P4) initiates, u tells it what is
        # missing and delivers it.
        u = build(["000", "010", "100", "101"])
        v = build(["000", "010", "100"])
        reconcile_once(v, u)
        assert set(v.keys()) == {"000", "010", "100", "101"}

    def test_other_direction_is_silent_when_target_is_subset(self):
        # The paper's example stresses that the direction matters: when u (the
        # superset) initiates towards v, the exchange ends without v learning
        # P4 — delivery of P4 needs v to initiate (previous test).  The full
        # protocol initiates from both sides over time, so this is harmless.
        u = build(["000", "010", "100", "101"])
        v = build(["000", "010", "100"])
        reconcile_once(u, v)
        assert set(v.keys()) == {"000", "010", "100"}
        assert set(u.keys()) == {"000", "010", "100", "101"}

    def test_disjoint_tries_converge_towards_union_after_two_initiations(self):
        a = build(["000", "001"])
        b = build(["110", "111"])
        reconcile_once(a, b)
        reconcile_once(b, a)
        assert set(a.keys()) == set(b.keys()) == {"000", "001", "110", "111"}

    def test_equal_tries_exchange_single_message(self):
        a = build(["000", "010"])
        b = build(["000", "010"])
        assert reconcile_once(a, b) == 1

    def test_empty_source_does_nothing(self):
        a = PatriciaTrie(key_bits=3)
        b = build(["000"])
        assert reconcile_once(a, b) == 0
        assert set(a.keys()) == set()
