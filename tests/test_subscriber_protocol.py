"""Unit tests for the subscriber-side protocol logic (Algorithms 1, 2, 4, 5)."""

import copy
import random

import pytest
from conftest import check_trie_invariants, records_in_flight

from repro.api import SystemSpec, build_stable
from repro.core import messages as msg
from repro.core.config import ProtocolParams
from repro.core.messages import protocol_schema
from repro.core.subscriber import Neighbor, Subscriber
from repro.core.supervisor import Supervisor
from repro.pubsub.hashing import publication_key
from repro.pubsub.publications import Publication
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.network import REC_DEST, REC_PARAMS
from repro.workloads.initial_states import FORGED


def make_world(n_subscribers: int = 3, params: ProtocolParams | None = None):
    """A supervisor plus detached subscribers, with timeouts disabled so tests
    can drive handlers directly."""
    sim = Simulator(SimulatorConfig(seed=7))
    supervisor = Supervisor(0, params=params)
    sim.add_node(supervisor, schedule_timeout=False)
    subscribers = []
    for i in range(n_subscribers):
        sub = Subscriber(i + 1, lambda topic: 0, params=params)
        sim.add_node(sub, schedule_timeout=False)
        subscribers.append(sub)
    return sim, supervisor, subscribers


def sent(sim, sender, action):
    return sim.network.stats.sent_by(sender, action)


class TestSupervisorRouting:
    def test_each_topic_asks_the_supervisor_supervisor_for_names(self):
        # The one supervisor path: a topic view's supervisor-bound request
        # goes to whatever node the subscriber's ``supervisor_for`` returns.
        sim = Simulator(SimulatorConfig(seed=7))
        for shard in (0, 5):
            sim.add_node(Supervisor(shard), schedule_timeout=False)
        sub = sim.add_node(Subscriber(1, {"a": 0, "b": 5}.__getitem__),
                           schedule_timeout=False)
        sub.subscribe("a")
        sub.subscribe("b")
        assert [(r[REC_DEST], r[REC_PARAMS]) for r in
                records_in_flight(sim, sender=1, action=msg.SUBSCRIBE)] == \
            [(0, {"node": 1}), (5, {"node": 1})]


class TestSetData:
    def test_adopts_label_and_neighbors(self):
        # The maximal node ('11' = 3/4) receives pred='1' (normal left) and
        # succ='0' (smaller r-value: the wrap-around edge, stored in ring).
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_SetData(("1", b.node_id), "11", ("0", c.node_id))
        assert view.label == "11"
        assert view.left == Neighbor("1", b.node_id)
        assert view.right is None
        assert view.ring == Neighbor("0", c.node_id)

    def test_interior_node_has_plain_left_and_right(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_SetData(("0", b.node_id), "01", ("1", c.node_id))
        assert view.left == Neighbor("0", b.node_id)
        assert view.right == Neighbor("1", c.node_id)
        assert view.ring is None

    def test_empty_config_clears_membership_and_notifies(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_SetData(("0", b.node_id), "01", ("1", c.node_id))
        view.pending_unsubscribe = True
        a.on_SetData(None, None, None)
        assert view.label is None
        assert view.left is None and view.right is None and view.ring is None
        assert not view.subscribed and not view.pending_unsubscribe
        assert sent(sim, a.node_id, msg.REMOVE_CONNECTIONS) >= 2

    def test_action_iii_requests_config_for_closer_stored_neighbor(self):
        # Stored left neighbour is closer to us than the proposed one: the
        # subscriber must ask the supervisor to refresh the stored one.
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "1"
        view.left = Neighbor("011", c.node_id)  # 3/8, closer to 1/2 than 0
        a.on_SetData(("0", b.node_id), "1", None)
        assert sent(sim, a.node_id, msg.GET_CONFIGURATION) == 1

    def test_unwanted_topic_triggers_unsubscribe_request(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view("ghost-topic", subscribed=False)
        a.on_SetData(("0", b.node_id), "01", ("1", c.node_id), topic="ghost-topic")
        assert view.label is None
        assert sent(sim, a.node_id, msg.UNSUBSCRIBE) == 1

    def test_config_change_counter_only_counts_changes(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        config = (("0", b.node_id), "01", ("1", c.node_id))
        a.on_SetData(*config)
        first = view.config_change_count
        a.on_SetData(*config)
        assert view.config_change_count == first


class TestIntroduceAndLinearize:
    def test_label_correction_reply(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "01"
        a.on_Introduce(b.node_id, "0", believed="11", flag=msg.FLAG_LIN)
        assert sent(sim, a.node_id, msg.CORRECT_LABEL) == 1

    def test_unlabeled_receiver_asks_sender_to_remove_it(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_Introduce(b.node_id, "0", believed=None, flag=msg.FLAG_LIN)
        assert sent(sim, a.node_id, msg.REMOVE_CONNECTIONS) == 1

    def test_closer_candidate_replaces_and_delegates_old_neighbor(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "1"                    # r = 1/2
        view.left = Neighbor("0", b.node_id)  # r = 0 (far)
        a.on_Linearize(c.node_id, "01")  # r = 1/4, closer on the left
        assert view.left == Neighbor("01", c.node_id)
        # old left delegated towards the new one
        assert sent(sim, a.node_id, msg.LINEARIZE) == 1

    def test_farther_candidate_is_delegated(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "1"
        view.left = Neighbor("01", b.node_id)
        a.on_Linearize(c.node_id, "0")  # farther left
        assert view.left == Neighbor("01", b.node_id)
        assert sent(sim, a.node_id, msg.LINEARIZE) == 1

    def test_cycle_introduction_kept_only_by_endpoint(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "0"                       # minimal position, left unset
        a.on_Introduce(c.node_id, "11", believed="0", flag=msg.FLAG_CYC)
        assert view.ring == Neighbor("11", c.node_id)

    def test_cycle_introduction_pushed_into_list_by_interior_node(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "01"
        view.left = Neighbor("0", b.node_id)
        a.on_Introduce(c.node_id, "11", believed="01", flag=msg.FLAG_CYC)
        assert view.ring is None
        assert view.right == Neighbor("11", c.node_id)

    def test_correct_label_updates_stored_entry(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "1"
        view.left = Neighbor("0", b.node_id)
        a.on_CorrectLabel(b.node_id, "01")
        assert view.left == Neighbor("01", b.node_id)

    def test_remove_connections_clears_all_references(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "1"
        view.left = Neighbor("0", b.node_id)
        view.shortcuts = {"01": b.node_id, "11": c.node_id}
        a.on_RemoveConnections(b.node_id)
        assert view.left is None
        assert view.shortcuts["01"] is None
        assert view.shortcuts["11"] == c.node_id


class TestShortcutRoutedDelegation:
    """A delegated reference goes to the stored ref whose label key lies
    nearest it without overshooting: the list neighbour or a shortcut strictly
    between our key and the candidate's (skip ring routing, a departure from
    list linearization's one position per hop)."""

    def _delegate(self, label, current, shortcuts, cand_label, on_left=True):
        """The destination of the ``Linearize`` a view labelled ``label``
        sends for candidate ref 9 under ``cand_label`` (refs are node ids)."""
        sim, sup, subs = make_world(9)
        view = subs[0].view(subscribed=True)
        view.label = label
        setattr(view, "left" if on_left else "right", current)
        view.shortcuts = dict(shortcuts)
        subs[0].on_Linearize(9, cand_label)
        (record,) = records_in_flight(sim, action=msg.LINEARIZE)
        assert record[REC_PARAMS] == {"node": 9, "label": cand_label}
        return record[REC_DEST]

    def test_the_nearest_shortcut_short_of_the_candidate_is_taken(self):
        # own r = 1/2, neighbour 3/8, shortcuts 1/4 and 1/8; candidate 1/16
        assert self._delegate("1", Neighbor("011", 2), {"01": 3, "001": 4}, "0001") == 4

    def test_the_right_side_mirrors_the_left(self):
        # own r = 1/4, neighbour 3/8, shortcuts 1/2 and 3/4; candidate 7/8
        assert self._delegate("01", Neighbor("011", 2), {"1": 3, "11": 4}, "111",
                              on_left=False) == 4

    def test_a_shortcut_past_the_candidate_or_on_our_other_side_is_not_taken(self):
        # 1/32 overshoots the candidate at 1/16, 3/4 lies on our other side
        shortcuts = {"00001": 5, "11": 6, "01": 3}
        assert self._delegate("1", Neighbor("011", 2), shortcuts, "0001") == 3

    def test_a_shortcut_at_the_candidates_key_is_not_taken(self):
        assert self._delegate("1", Neighbor("011", 2), {"00010": 5}, "0001") == 2

    def test_none_our_own_and_the_candidates_refs_are_skipped(self):
        # nearer stored labels, but no ref, ours (1) or the candidate's (9)
        shortcuts = {"001": None, "0011": 1, "00011": 9, "01": 3}
        assert self._delegate("1", Neighbor("011", 2), shortcuts, "0001") == 3

    def test_with_no_usable_shortcut_the_neighbour_takes_it(self):
        assert self._delegate("1", Neighbor("011", 2), {"001": None, "11": 6}, "0001") == 2

    def test_a_neighbour_on_the_wrong_side_falls_back_to_list_linearization(self):
        # An arbitrary state: ``left`` holds 3/4 > 1/2.  The candidate at 1/8
        # is farther from us than it, so it goes there, past the shortcut at 1/4.
        assert self._delegate("1", Neighbor("11", 2), {"01": 3}, "001") == 2

    def test_a_stale_shortcut_label_never_carries_the_candidate_past_its_position(self):
        # Node 5 is stored under 1/32, a label this view does not expect (a stale
        # entry, pruned at its next Timeout).  The stored label is all the view
        # knows, and it lies past the candidate at 1/16: the walk stays on the
        # list.  Stored under 3/32, short of the candidate, the entry is taken.
        assert self._delegate("1", Neighbor("011", 2), {"00001": 5}, "0001") == 2
        assert self._delegate("1", Neighbor("011", 2), {"00011": 5}, "0001") == 5


class TestShortcutHandling:
    def test_expected_shortcut_is_stored(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "01"
        view.shortcuts = {"0": None, "1": None}
        a.on_IntroduceShortcut(b.node_id, "0")
        assert view.shortcuts["0"] == b.node_id

    def test_replaced_shortcut_keeps_old_reference_in_the_ring(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "01"
        view.shortcuts = {"0": b.node_id}
        a.on_IntroduceShortcut(c.node_id, "0")
        assert view.shortcuts["0"] == c.node_id
        # The displaced reference is linearized: since the view had no left
        # neighbour it is absorbed locally rather than forwarded.
        assert view.left == Neighbor("0", b.node_id)

    def test_unexpected_shortcut_is_delegated_into_ring(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "1"
        view.left = Neighbor("01", b.node_id)
        a.on_IntroduceShortcut(c.node_id, "0011")
        assert "0011" not in view.shortcuts
        assert sent(sim, a.node_id, msg.LINEARIZE) == 1


class TestTimeoutBehaviour:
    def test_unlabeled_subscribed_view_sends_subscribe(self):
        sim, sup, (a, b, c) = make_world()
        a.subscribe()
        assert sent(sim, a.node_id, msg.SUBSCRIBE) == 1
        a.on_timeout()
        assert sent(sim, a.node_id, msg.SUBSCRIBE) == 2

    def test_never_subscribed_peer_is_silent(self):
        sim, sup, (a, b, c) = make_world()
        a.on_timeout()
        assert sim.network.stats.sent_by(a.node_id) == 0

    def test_pending_unsubscribe_keeps_asking_for_permission(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "0"
        a.unsubscribe()
        before = sent(sim, a.node_id, msg.UNSUBSCRIBE)
        a.on_timeout()
        assert sent(sim, a.node_id, msg.UNSUBSCRIBE) == before + 1

    def test_labeled_node_introduces_itself_to_neighbors(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "01"
        view.left = Neighbor("0", b.node_id)
        view.right = Neighbor("1", c.node_id)
        a.on_timeout()
        assert sent(sim, a.node_id, msg.INTRODUCE) == 2

    def test_wrong_side_neighbor_is_relinearized_on_timeout(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "0"
        view.left = Neighbor("1", b.node_id)   # a 'left' neighbour with larger r
        a.on_timeout()
        assert view.left is None
        # pushed to the right side instead (r('1') > r('0'))
        assert view.right == Neighbor("1", b.node_id)


class TestPublicationHandlers:
    def test_publish_inserts_and_floods(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "0"
        view.right = Neighbor("1", b.node_id)
        view.ring = Neighbor("11", c.node_id)
        publication = a.publish(b"hello")
        assert publication.key in view.trie
        assert sent(sim, a.node_id, msg.PUBLISH_NEW) == 2

    def test_publish_new_is_forwarded_once(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "0"
        view.right = Neighbor("1", b.node_id)
        incoming = a.publish(b"x")  # seeds the trie and floods
        first = sent(sim, a.node_id, msg.PUBLISH_NEW)
        # Receiving the same publication again must not re-flood.
        a.on_PublishNew(incoming.wire, hops=2, sender=b.node_id)
        assert sent(sim, a.node_id, msg.PUBLISH_NEW) == first

    def test_check_trie_round_trip_between_two_views(self):
        params = ProtocolParams()
        sim, sup, (a, b, c) = make_world(params=params)
        view_a = a.view(subscribed=True)
        view_b = b.view(subscribed=True)
        view_a.label, view_b.label = "0", "1"
        view_a.right = Neighbor("1", b.node_id)
        view_b.left = Neighbor("0", a.node_id)
        pub = a.publish(b"exclusive")
        # b initiates anti-entropy towards a by processing a's CheckTrie
        request = view_a.trie.root_summary()
        b.on_CheckTrie(a.node_id, [list(request)])
        sim.run_rounds(10)
        assert pub.key in view_b.trie

    def test_malformed_publication_wire_data_is_ignored(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_Publish([{"bogus": 1}])
        a.on_PublishNew({"bogus": 1}, hops=1, sender=None)
        assert len(view.trie) == 0


# The receiver's key length is 64 bits; it stores b"genuine" from node 1, under
# GENUINE_KEY: the last five of the pool's forged wires forge that publication.
GENUINE_KEY = publication_key(1, b"genuine", bits=64)


class TestForgedPublicationWires:
    def _view_with_one_publication(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "0"
        view.right = Neighbor("1", b.node_id)
        view.ring = Neighbor("11", c.node_id)
        stored = a.publish(b"genuine")
        return sim, a, b, view, stored

    @pytest.mark.parametrize("wire", FORGED["wire"], ids=repr)
    def test_forged_wire_is_dropped_at_ingress(self, wire):
        sim, a, b, view, stored = self._view_with_one_publication()
        def observed():
            return (view.trie.root_summary(), view.trie.keys(),
                    sent(sim, a.node_id, msg.PUBLISH_NEW))

        before = observed()
        a.on_PublishNew(pub=wire, hops=1, sender=b.node_id)
        a.on_Publish(pubs=[wire, stored.wire])
        a.on_Publish(pubs=wire)
        assert observed() == before
        check_trie_invariants(view.trie)

    def test_forged_publisher_cannot_smuggle_a_stored_key(self):
        """Interning is by wire *content*: a wire that differs from a stored
        publication only in its publisher is other content, gets its key
        from the hash like any publication, and is stored beside it."""
        sim, a, b, view, stored = self._view_with_one_publication()
        forged = dict(stored.wire, publisher=stored.publisher + 1)
        a.on_PublishNew(pub=forged, hops=1, sender=b.node_id)
        other = Publication.from_wire(forged)
        assert other is not stored and other.key != stored.key
        assert other.key == publication_key(stored.publisher + 1, b"genuine", bits=64)
        assert view.trie.keys() == sorted([stored.key, other.key])
        assert view.trie.get(stored.key) is stored

    @pytest.mark.parametrize("action", [msg.PUBLISH_NEW, msg.PUBLISH])
    @pytest.mark.parametrize("change", [{"publisher": 2}, {"payload": b"forged".hex()}],
                             ids=repr)
    def test_a_stored_key_over_other_content_is_decoded_from_content(self, action, change):
        """The wire names its key, but the receiver drops it as a copy only if
        the stored publication's wire equals it: other content under a stored
        key is a new publication, stored under the key its content hashes to."""
        sim, a, b, view, stored = self._view_with_one_publication()
        forged = dict(stored.wire, **change)
        assert forged["key"] == stored.key == GENUINE_KEY
        if action == msg.PUBLISH_NEW:
            a.on_PublishNew(pub=forged, hops=1, sender=b.node_id)
        else:
            a.on_Publish(pubs=[forged])
        other = view.trie.get(publication_key(
            forged["publisher"], bytes.fromhex(forged["payload"]), bits=64))
        assert other is Publication.from_wire(forged) and other.key != stored.key
        assert view.trie.keys() == sorted([stored.key, other.key])
        assert view.trie.get(stored.key) is stored


_KEEP_EVENTS = SimulatorConfig(seed=3, keep_trace_events=True)
BOTH_TOPOLOGIES = pytest.mark.parametrize("spec", [
    SystemSpec(seed=3, sim=_KEEP_EVENTS),
    SystemSpec(seed=3, sim=_KEEP_EVENTS, topology="sharded", shards=2),
], ids=["single", "sharded"])


class TestForgedPublishNewEnvelope:
    """Theorem 8, arbitrary channel contents, for the two ``PublishNew``
    parameters beside the wire: ``hops`` is counted with, so one that is not
    an int >= 1 is dropped with its message (a float or a bool would flood on
    into the ``flood_delivery`` events E7 reads its hop counts from);
    ``sender`` is only compared, so a forged one excludes nobody."""

    WIRE = {"publisher": 9, "payload": "ab", "key_bits": 64}

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("hops", FORGED["hops"], ids=repr)
    def test_forged_hops_end_no_run_and_reach_no_trace(self, spec, hops):
        system, peers = build_stable(spec, 8)
        system.sim.inject_message(peers[0].node_id, "PublishNew",
                                  {"pub": self.WIRE, "hops": hops, "sender": 2},
                                  topic="default")
        genuine = system.publish(peers[1].node_id, b"genuine")
        system.run_rounds(4)
        assert system.run_until_legitimate(max_rounds=300)
        assert system.run_until_publications_converged(expected_keys={genuine.key},
                                                       max_rounds=300)
        deliveries = [e for e in system.sim.tracer.events if e.kind == "flood_delivery"]
        assert len(deliveries) == len(peers) - 1  # the genuine flood, nothing forged
        assert all(type(e.data["hops"]) is int and e.data["hops"] >= 1 for e in deliveries)
        assert all(peer.view().trie.keys() == [genuine.key] for peer in peers)

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("sender", [ref for ref in FORGED["ref"] if not isinstance(ref, int)],
                             ids=repr)
    def test_forged_sender_excludes_nobody(self, spec, sender):
        system, peers = build_stable(spec, 8)
        receiver = peers[0]
        sent_before = sent(system.sim, receiver.node_id, msg.PUBLISH_NEW)
        system.sim.inject_message(receiver.node_id, "PublishNew",
                                  {"pub": self.WIRE, "hops": 1, "sender": sender},
                                  topic="default")
        system.run_rounds(1)
        key = Publication.from_wire(self.WIRE).key
        assert key in receiver.view().trie
        assert (sent(system.sim, receiver.node_id, msg.PUBLISH_NEW) - sent_before
                == len(receiver.view().neighbor_refs()) > 0)
        assert system.run_until_publications_converged(expected_keys={key}, max_rounds=300)
        assert system.run_until_legitimate(max_rounds=300)


class TestForgedAntiEntropyTuples:
    """Theorem 8, arbitrary channel contents, for the ``tuples`` of the two
    anti-entropy requests: ``antientropy.handle_check_trie`` is their one
    validator and skips what is not a summary, item by item (the pool's dict
    rows used to raise ``KeyError(0)`` out of the drain)."""

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("action", [msg.CHECK_TRIE, msg.CHECK_AND_PUBLISH])
    @pytest.mark.parametrize("tuples", FORGED["tuples"], ids=repr)
    def test_forged_tuples_end_no_run_and_store_nothing(self, spec, action, tuples):
        system, peers = build_stable(spec, 8)
        params = dict(well_formed("subscriber", action), sender=peers[1].node_id, tuples=tuples)
        system.sim.inject_message(peers[0].node_id, action, params, topic="default")
        genuine = system.publish(peers[2].node_id, b"genuine")
        system.run_rounds(5)
        assert system.run_until_legitimate(max_rounds=100)
        assert system.run_until_publications_converged(expected_keys={genuine.key},
                                                       max_rounds=300)
        assert all(peer.view().trie.keys() == [genuine.key] for peer in peers)


class TestAntiEntropyWireShapes:
    def test_recorded_exchange_between_two_views_with_different_tries(self):
        """Message for message what the parent of PR 23 sent (its output, pasted):
        ``CheckTrie`` carries ``(label, digest)`` tuples, ``CheckAndPublish``
        2-lists, ``Publish`` wire dicts."""
        params = ProtocolParams(publication_key_bits=4)
        sim, sup, (a, b, c) = make_world(params=params)
        view_a, view_b = a.view(subscribed=True), b.view(subscribed=True)
        for payload in (b"p0", b"p1", b"p2", b"p5", b"p6"):
            view_a.publish(payload)
        for payload in (b"p0", b"p3", b"p6", b"p9"):
            view_b.publish(payload)
        assert view_a.trie.keys() == ["0001", "0110", "1100", "1111"]
        assert view_b.trie.keys() == ["0000", "0101", "1000", "1111"]
        log, send_fast = [], sim._send_fast

        def recording(sender, topic, sends):
            log.extend((dest, action, copy.deepcopy(params)) for dest, action, params in sends)
            send_fast(sender, topic, sends)
        sim._send_fast = recording
        b.on_CheckTrie(a.node_id, [list(view_a.trie.root_summary())])
        sim.run_rounds(10)
        h = {
            "0": "1f8cf5ed138f1233d3f4d14a2939ccc9537d236a9a0b248bf87483abb7ccc326",
            "1": "527240cf5b4811d376d6df68610e3a0dc04e7680ab021fbaba1ba32e6ccbf01e",
            "0001": "4262b468aa9a042114cfc2fd78ad004abe897180383ddca22577ff3997a44aa7",
            "0110": "b89f890549eff665e713a65dccd7f0b7a27db509d21434c2063f00f820627a35",
            "11": "3e93a88c9f4a399fde892fa3563b389a91866155c47edebef7f5ab49b39aba9f",
            "1111": "c2309946f7d5ea2a2c75820a05753dee615a964e7529413a75b4d763f0100208",
        }
        assert log == [
            (1, "CheckTrie", {"sender": 2, "tuples": [("0", h["0"]), ("1", h["1"])]}),
            (2, "CheckTrie", {"sender": 1, "tuples": [("0001", h["0001"]), ("0110", h["0110"])]}),
            (2, "CheckAndPublish", {"sender": 1, "tuples": [["11", h["11"]]], "prefix": "10"}),
            (1, "CheckAndPublish", {"sender": 2, "tuples": [], "prefix": "0001"}),
            (1, "CheckAndPublish", {"sender": 2, "tuples": [], "prefix": "0110"}),
            (2, "Publish", {"pubs": [
                {"publisher": 1, "payload": "7031", "key_bits": 4, "key": "0001"}]}),
            (1, "CheckAndPublish", {"sender": 2, "tuples": [["1111", h["1111"]]], "prefix": "110"}),
            (1, "Publish", {"pubs": [
                {"publisher": 2, "payload": "7033", "key_bits": 4, "key": "1000"}]}),
            (2, "Publish", {"pubs": [
                {"publisher": 1, "payload": "7030", "key_bits": 4, "key": "0110"}]}),
            (2, "Publish", {"pubs": [
                {"publisher": 1, "payload": "7035", "key_bits": 4, "key": "1100"}]}),
        ]
        # list == tuple is False, so the literal above pins the container types too.
        assert view_a.trie.keys() == ["0001", "0110", "1000", "1100", "1111"]
        assert view_b.trie.keys() == ["0000", "0001", "0101", "0110", "1000", "1100", "1111"]


@pytest.mark.parametrize("count", range(1, 10))
def test_the_check_trie_partner_draw_is_random_choice(count):
    """The Timeout draws its anti-entropy partner inline: the index and the
    generator state after it are ``Random.choice``'s over the same targets."""
    system, peers = build_stable(SystemSpec(seed=4), 4)  # anti-entropy every Timeout
    peer = peers[0]
    view = peer.view()
    view.publish(b"offer")  # a trie root to offer
    batches = []
    system.sim._send_fast = lambda sender, topic, sends: batches.append(list(sends))
    view.timeout()  # the plan is current from here on
    targets = view._plan.targets = list(range(100, 100 + count))
    twin = random.Random()
    for _ in range(40):
        twin.setstate(peer.rng.getstate())
        batches.clear()
        view.timeout()
        twin.random()  # the configuration-request coin
        twin.random()  # the anti-entropy coin
        assert [dest for dest, action, _ in batches[0]
                if action == msg.CHECK_TRIE] == [twin.choice(targets)]
        assert peer.rng.getstate() == twin.getstate()


SCHEMA = protocol_schema()

#: One well-formed value per key the protocol schema names (refs 2 and 3 are
#: subscribers in both topologies): a well-formed message of any action of
#: either role is its keys' values.
WELL_FORMED = {
    "pred": ("0", 2), "label": "01", "succ": ("1", 3), "node": 2, "believed": "0",
    "flag": msg.FLAG_LIN, "sender": 2, "tuples": [("0", "ab")], "prefix": "0",
    "pubs": [{"publisher": 1, "payload": "00", "key_bits": 64}],
    "pub": {"publisher": 1, "payload": "00", "key_bits": 64}, "hops": 1,
}


def well_formed(role, action):
    return {key: WELL_FORMED[key] for key in SCHEMA[role][action]}


class TestForgedTopics:
    """A ``topic`` that is neither ``None`` nor a ``str`` is a forged message:
    dropped by the handlers' one view lookup, whatever the action
    (``tests/test_forged_messages.py`` searches the same space with any keys).
    ``None`` and ``""`` are no forged topic: both mean the default topic."""

    def test_every_subscriber_bound_action_is_covered(self):
        assert {key for keys in SCHEMA["subscriber"].values() for key in keys} == set(WELL_FORMED)

    @pytest.mark.parametrize("topic", FORGED["topic"], ids=repr)
    @pytest.mark.parametrize("action", sorted(SCHEMA["subscriber"]))
    def test_handler_drops_the_message(self, action, topic):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_SetData(("0", b.node_id), "01", ("1", c.node_id))
        before = (view.label, view.left, view.right, view.ring, dict(view.shortcuts),
                  len(view.trie), sim.network.stats.sent_by(a.node_id))
        Subscriber._action_handlers[action](a, topic=topic, **well_formed("subscriber", action))
        assert list(a.views) == [a.params.default_topic]
        assert (view.label, view.left, view.right, view.ring, dict(view.shortcuts),
                len(view.trie), sim.network.stats.sent_by(a.node_id)) == before

    def test_none_and_empty_topics_still_mean_the_default_topic(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_SetData(("0", b.node_id), "01", ("1", c.node_id), topic=None)
        assert view.label == "01"
        a.on_RemoveConnections(node=b.node_id, topic="")
        assert view.left is None and list(a.views) == [a.params.default_topic]

    def test_injected_forged_topics_do_not_stop_the_run(self, fresh_system):
        system, subscribers = fresh_system(8, seed=18)
        sim = system.sim
        actions = sorted(SCHEMA["subscriber"])
        for i, topic in enumerate(FORGED["topic"] * 3):
            action = actions[i % len(actions)]
            sim.inject_message(subscribers[i % 8].node_id, action,
                               well_formed("subscriber", action), topic=topic,
                               delay=0.01 * (i + 1))
        system.run_rounds(1)
        assert system.run_until_legitimate(max_rounds=50)
        assert all(list(s.views) == [system.params.default_topic] for s in subscribers)


class TestForgedSetDataNeighbors:
    """Correct topic, correct label, a garbage neighbour: decoded as ``None``
    (a dict used to raise ``KeyError: 0`` out of the handler)."""

    @pytest.mark.parametrize("side", ["pred", "succ"])
    # A set's repr follows PYTHONHASHSEED: its id is spelled out so the
    # test's name is the same in every run.
    @pytest.mark.parametrize("garbage", [
        pytest.param(g, id="{'0', 2}") if isinstance(g, set) else g
        for g in FORGED["pair"]], ids=repr)
    def test_garbage_on_one_side_leaves_the_view_unchanged(self, garbage, side):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        config = {"pred": ("0", b.node_id), "label": "01", "succ": ("1", c.node_id)}
        a.on_SetData(**config, topic=view.topic)
        before = (view.left, view.right, view.ring, view.config_change_count,
                  sim.network.stats.sent_by(a.node_id))
        a.on_SetData(**dict(config, **{side: garbage}), topic=view.topic)
        assert (view.left, view.right, view.ring, view.config_change_count,
                sim.network.stats.sent_by(a.node_id)) == before

    def test_garbage_on_both_sides_reads_as_the_single_subscriber_configuration(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_SetData(("0", b.node_id), "01", ("1", c.node_id), topic=view.topic)
        a.on_SetData(pred={0: "0"}, label="01", succ={"0", 2}, topic=view.topic)
        assert view.label == "01"
        assert view.left is None and view.right is None and view.ring is None


class TestForgedNeighbourRefs:
    """Theorem 8 for the ref an ``Introduce``, ``Linearize`` or
    ``IntroduceShortcut`` names: one that is not an ``int`` is dropped where
    it would enter the view, by the rule ``SetData``'s refs follow.  Kept, it
    used to end the run at the next flood (``sorted`` over mixed types, or an
    unhashable ref in the target set)."""

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("action", [msg.INTRODUCE, msg.LINEARIZE, msg.INTRODUCE_SHORTCUT])
    @pytest.mark.parametrize("ref", ["x", (1, 2), [3]], ids=repr)
    def test_a_forged_ref_never_reaches_a_flood(self, spec, action, ref):
        assert ref in FORGED["ref"]
        system, peers = build_stable(spec, 8)
        if action == msg.INTRODUCE_SHORTCUT:  # a label the view expects
            receiver = next(peer for peer in peers if peer.view().shortcuts)
            label = min(receiver.view().shortcuts)
        else:  # a deepest node: its label + "1" is closer than any neighbour it has
            receiver = next(peer for peer in peers if len(peer.view().label) == 3)
            label = receiver.view().label + "1"
        params = dict(well_formed("subscriber", action), node=ref, label=label)
        if action == msg.INTRODUCE:
            params["believed"] = receiver.view().label
        system.sim.inject_message(receiver.node_id, action, params, topic="default", delay=0.0)
        system.run_for(0.01)  # delivered, and nothing has overwritten it yet
        genuine = system.publish(receiver.node_id, b"genuine")
        system.run_rounds(4)
        assert system.run_until_legitimate(max_rounds=300)
        assert system.run_until_publications_converged(expected_keys={genuine.key},
                                                       max_rounds=300)
        assert system.is_legitimate() and system.publications_converged()


class TestTimeoutPlanStaysHonest:
    """The Timeout plan and the no-op fast paths vouch only for the objects
    they were built from: cases a random walk rarely reaches, one by one."""

    def _interior_view(self):
        sim, sup, (a, b, c, d) = make_world(4)
        view = a.view(subscribed=True)
        a.on_SetData(("0", b.node_id), "01", ("1", c.node_id))
        a.on_timeout()  # the plan now vouches for ("01", left "0", right "1")
        return sim, a, b, c, d, view

    @pytest.mark.parametrize("side, label, delegate", [("left", "11", "c"), ("right", "0", "b")])
    def test_a_neighbour_written_to_the_wrong_side_takes_the_full_path(self, side, label, delegate):
        sim, a, b, c, d, view = self._interior_view()
        setattr(view, side, Neighbor(label, d.node_id))
        before = sent(sim, a.node_id, msg.LINEARIZE)
        a.on_Linearize(d.node_id, label)  # equal to the stored one, which is misplaced
        # farther than the neighbour of the side it belongs to: delegated there
        assert sent(sim, a.node_id, msg.LINEARIZE) == before + 1
        last = records_in_flight(sim, action=msg.LINEARIZE)[-1]
        assert last[REC_DEST] == {"b": b, "c": c}[delegate].node_id
        assert last[REC_PARAMS] == {"node": d.node_id, "label": label}

    def test_anti_entropy_targets_follow_a_reference_the_same_timeout_relinearized(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "1"
        view.left = Neighbor("0", b.node_id)
        a.publish(b"something to offer")
        a.on_timeout()
        offers = [record[REC_DEST] for record in records_in_flight(sim, action=msg.CHECK_TRIE)]
        assert offers == [b.node_id]
        view.shortcuts["011"] = c.node_id  # not an expected label, closer than "0"
        a.on_timeout()  # prunes it into ``left`` after the plan was matched
        assert view.left == Neighbor("011", c.node_id)
        offers = [record[REC_DEST] for record in records_in_flight(sim, action=msg.CHECK_TRIE)]
        assert sorted(offers) == sorted([b.node_id, c.node_id])

    def test_the_wrap_around_partner_can_change_its_label(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        view.label = "0"
        view.ring = stored = Neighbor("11", c.node_id)
        a.on_Introduce(c.node_id, "11", believed="0", flag=msg.FLAG_CYC)
        assert view.ring is stored  # restated: the same object, the plan stays current
        a.on_Introduce(c.node_id, "111", believed="0", flag=msg.FLAG_CYC)
        assert view.ring == Neighbor("111", c.node_id)

    def test_set_data_replaces_a_different_wrap_around_partner(self):
        sim, sup, (a, b, c) = make_world()
        view = a.view(subscribed=True)
        a.on_SetData(("1", b.node_id), "11", ("0", c.node_id))
        stored = view.ring
        a.on_SetData(("1", b.node_id), "11", ("0", c.node_id))
        assert view.ring is stored and view.label == "11"
        a.on_SetData(("1", b.node_id), "11", ("01", b.node_id))
        assert view.ring == Neighbor("01", b.node_id) and view.right is None


class TestTimeoutIsNoMessage:
    """``timeout`` is the periodic action, not a message label: a message
    named so is ignored like any label no handler understands (it used to
    fire an unscheduled Timeout, or raise on its ``topic``/extra key)."""

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("role", ["subscriber", "supervisor"])
    @pytest.mark.parametrize("params, topic", [({}, None), ({}, "default"),
                                               ({"x": 1}, None), ({"x": 1}, "default")],
                             ids=["bare", "topic", "extra", "extra+topic"])
    def test_a_timeout_message_does_nothing(self, spec, role, params, topic):
        system, peers = build_stable(spec, 8)
        sim = system.sim
        node = peers[0] if role == "subscriber" else system.supervisor_of("default")
        before = (node.timeout_count, sim.network.stats.sent_by(node.node_id))
        sim.inject_message(node.node_id, "timeout", params, topic=topic, delay=0.0)
        sim.run_until_time(sim.now)  # the injected message, nothing else
        assert (node.timeout_count, sim.network.stats.sent_by(node.node_id)) == before
        system.run_rounds(10)
        assert system.run_until_legitimate(max_rounds=300)


class TestMessageShape:
    """Theorem 8, arbitrary channel contents, for the *shape* of a message:
    every handler of both roles takes ``(self, /, key=None, ..., **_)``, so a
    missing key reads as ``None`` and an unknown key — ``self`` too — is
    absorbed.  Each used to raise ``TypeError`` out of the drain."""

    def test_every_supervisor_bound_action_is_covered(self):
        assert {key for keys in SCHEMA["supervisor"].values() for key in keys} <= set(WELL_FORMED)

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("action", sorted(SCHEMA["subscriber"]) + sorted(SCHEMA["supervisor"]))
    def test_missing_extra_and_none_keys_end_no_run(self, spec, action):
        system, peers = build_stable(spec, 8)
        if action in SCHEMA["subscriber"]:
            dest, params = peers[-1].node_id, well_formed("subscriber", action)
        else:
            dest = system.supervisor_of("default").node_id
            params = well_formed("supervisor", action)
        variants = [{k: v for k, v in params.items() if k != key} for key in params]
        variants += [dict(params, **{key: None}) for key in params]
        variants.append(dict(params, extra=1, self=2))
        for i, variant in enumerate(variants):
            system.sim.inject_message(dest, action, variant, topic="default",
                                      delay=0.01 * (i + 1))
        system.run_rounds(10)
        assert system.run_until_legitimate(max_rounds=300)
