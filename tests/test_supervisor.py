"""Unit tests for the supervisor protocol and database repair (Section 3.1)."""

import random
from fractions import Fraction

import pytest
from conftest import database_corrupted

from repro.analysis.convergence import ring_legitimate
from repro.api import SystemSpec, build_stable
from repro.core.config import ProtocolParams
from repro.core.labels import label_of
from repro.core.messages import protocol_schema
from repro.core.supervisor import Supervisor, TopicDatabase
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import ProtocolNode
from repro.workloads.initial_states import FORGED


class TestTopicDatabase:
    def test_empty_database_is_not_corrupted(self):
        assert not database_corrupted(TopicDatabase())

    def test_corruption_condition_i_missing_subscriber(self):
        db = TopicDatabase(entries={label_of(0): None})
        assert database_corrupted(db)
        db.repair_labels()
        assert not database_corrupted(db) and db.n == 0

    def test_corruption_condition_ii_duplicate_subscriber(self):
        db = TopicDatabase(entries={label_of(0): 5, label_of(1): 5})
        assert database_corrupted(db)
        db.repair_labels()
        assert not database_corrupted(db)
        assert db.entries == {label_of(0): 5}

    def test_corruption_condition_iii_missing_label(self):
        # labels l(0) and l(2) present, l(1) missing
        db = TopicDatabase(entries={label_of(0): 1, label_of(2): 2})
        assert database_corrupted(db)
        db.repair_labels()
        assert not database_corrupted(db)
        assert set(db.entries) == {label_of(0), label_of(1)}
        assert set(db.members()) == {1, 2}

    def test_corruption_condition_iv_out_of_range_label(self):
        db = TopicDatabase(entries={label_of(0): 1, label_of(7): 2})
        assert database_corrupted(db)
        db.repair_labels()
        assert set(db.entries) == {label_of(0), label_of(1)}

    def test_repair_handles_non_canonical_labels(self):
        db = TopicDatabase(entries={"010": 3, label_of(0): 1})
        assert database_corrupted(db)
        db.repair_labels()
        assert not database_corrupted(db)
        assert set(db.members()) == {1, 3}

    def test_repair_removes_crashed_members(self):
        db = TopicDatabase(entries={label_of(0): 1, label_of(1): 2, label_of(2): 3})
        db.repair_labels(crashed=[2])
        assert not database_corrupted(db)
        assert set(db.members()) == {1, 3}
        assert set(db.entries) == {label_of(0), label_of(1)}

    def test_repair_is_idempotent(self):
        db = TopicDatabase(entries={label_of(0): 1, label_of(5): 2, "0100": 9,
                                    label_of(3): None})
        db.repair_labels()
        snapshot = dict(db.entries)
        db.repair_labels()
        assert db.entries == snapshot

    def test_check_multiple_copies_keeps_lowest_label(self):
        db = TopicDatabase(entries={label_of(0): 1, label_of(1): 7, label_of(2): 7})
        db.check_multiple_copies(7)
        assert db.entries == {label_of(0): 1, label_of(1): 7}

    def test_configuration_for_cyclic_neighbors(self):
        db = TopicDatabase(entries={label_of(i): 100 + i for i in range(4)})
        # ring order by r: l(0)=0, l(2)=1/4, l(1)=1/2, l(3)=3/4
        pred, succ = db.configuration_for(label_of(0))
        assert pred == (label_of(3), 103)
        assert succ == (label_of(2), 102)

    def test_configuration_for_single_entry(self):
        db = TopicDatabase(entries={label_of(0): 42})
        assert db.configuration_for(label_of(0)) == (None, None)

    def test_next_label_and_round_robin(self):
        db = TopicDatabase(entries={label_of(0): 1, label_of(1): 2})
        assert db.next_label() == label_of(2)
        labels = {db.round_robin_label() for _ in range(4)}
        assert labels == {label_of(0), label_of(1)}
        assert TopicDatabase().round_robin_label() is None


class TestOrderedDatabaseDifferential:
    """The database's bisect-maintained ring order and ``subscriber → labels``
    index against what the seed computed from the plain dict on every call:
    a stable ``sorted()`` over ``Fraction`` keys and linear scans."""

    @staticmethod
    def _assert_matches_reference(db: TopicDatabase, refs) -> None:
        entries = dict(db.entries)

        def key(item):
            label = item[0]
            valid = isinstance(label, str) and label != "" and set(label) <= {"0", "1"}
            return (0, Fraction(int(label, 2), 2 ** len(label))) if valid else (1, 0)

        ordered = [item for item in sorted(entries.items(), key=key) if item[1] is not None]
        assert [(item[3], db.entries[item[3]]) for item in db._order] == ordered
        assert db.members() == [ref for ref in entries.values() if ref is not None]
        assert db.n == len(entries)
        for pos, (label, _) in enumerate(ordered):
            expected = ((None, None) if len(ordered) <= 1 else
                        (ordered[pos - 1], ordered[(pos + 1) % len(ordered)]))
            assert db.configuration_for(label) == expected
        for ref in refs:
            assert db.label_for(ref) == next(
                (label for label, held in entries.items() if held == ref), None)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_match_the_sorted_dict_reference(self, seed, supervised):
        rng = random.Random(seed)
        refs = list(range(100, 130)) + [999]  # 999 never joins
        sim, sup = supervised(refs[:-1])
        db = sup.database()

        def short_label():  # non-canonical and trailing zeros included: r ties
            return "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))

        def step():
            roll = rng.random()
            if roll < 0.35:
                sup.on_Subscribe(rng.choice(refs[:-1]))
            elif roll < 0.55:
                try:
                    sup.on_Unsubscribe(rng.choice(refs))
                except KeyError:  # l(n-1) is a hole: raised before any write, as
                    pass          # ``del entries[last_label]`` on the plain dict did
            elif roll < 0.65:
                db.repair_labels(crashed=rng.sample(refs, rng.randint(0, 3)))
            elif roll < 0.70:
                db.check_multiple_copies(rng.choice(refs))
            # the four modes of workloads.initial_states.corrupt_supervisor_database
            elif roll < 0.76:
                db.put(label_of(db.n + rng.randint(0, 5)), None)               # (i)
            elif roll < 0.84:
                db.put(label_of(db.n + rng.randint(0, 5)), rng.choice(refs))   # (ii)/(iv)
            elif roll < 0.92:
                db.put(short_label() + rng.choice(("", "0", "00")), rng.choice(refs))
            elif roll < 0.97:
                db.put(rng.choice(("", "2", "0x1", "١", "abc", " 1")), rng.choice(refs + [None]))
            else:
                db.clear()

        for _ in range(400):
            step()
            self._assert_matches_reference(db, refs)
        db.repair_labels()
        assert not database_corrupted(db)
        self._assert_matches_reference(db, refs)

    def test_direct_writes_to_entries_raise(self):
        db = TopicDatabase(entries={label_of(0): 1})
        with pytest.raises(TypeError):
            db.entries[label_of(1)] = 2
        with pytest.raises(TypeError):
            del db.entries[label_of(0)]
        with pytest.raises(AttributeError):
            db.entries.clear()
        assert db.entries == {label_of(0): 1}


class TestSupervisorHandlers:
    def test_subscribe_assigns_sequential_labels(self, supervised):
        sim, sup = supervised((10, 11, 12))
        for node in (10, 11, 12):
            sup.on_Subscribe(node)
        db = sup.database()
        assert db.label_for(10) == label_of(0)
        assert db.label_for(11) == label_of(1)
        assert db.label_for(12) == label_of(2)
        assert sup.ops_handled == 3
        # one configuration message per subscribe (Theorem 7)
        assert sup.op_response_messages == 3

    def test_duplicate_subscribe_does_not_duplicate_entry(self, supervised):
        sim, sup = supervised([10])
        sup.on_Subscribe(10)
        sup.on_Subscribe(10)
        assert sup.database().n == 1

    def test_unsubscribe_moves_last_label_holder(self, supervised):
        sim, sup = supervised((10, 11, 12))
        for node in (10, 11, 12):
            sup.on_Subscribe(node)
        sup.on_Unsubscribe(10)  # label l(0) freed; holder of l(2) moves in
        db = sup.database()
        assert db.label_for(10) is None
        assert db.label_for(12) == label_of(0)
        assert not database_corrupted(db)

    def test_unsubscribe_last_node(self, supervised):
        sim, sup = supervised([10])
        sup.on_Subscribe(10)
        sup.on_Unsubscribe(10)
        assert sup.database().n == 0

    def test_unsubscribe_unknown_node_still_grants_permission(self, supervised):
        sim, sup = supervised(())
        sup.on_Unsubscribe(99)
        assert sup.database().n == 0
        # SetData(⊥,⊥,⊥) was sent to the requester
        assert sim.network.stats.sent_by(0, "SetData") == 1

    def test_get_configuration_unknown_integrates_by_default(self, supervised):
        sim, sup = supervised([55])
        sup.on_GetConfiguration(55)
        assert sup.database().label_for(55) == label_of(0)

    def test_get_configuration_unknown_pseudocode_variant(self, supervised):
        sim, sup = supervised([55], ProtocolParams(integrate_unknown_requesters=False))
        sup.on_GetConfiguration(55)
        assert sup.database().n == 0
        assert sim.network.stats.sent_by(0, "SetData") == 1

    def test_requests_from_suspected_nodes_are_ignored(self, supervised):
        sim, sup = supervised([10])
        sup.on_Subscribe(10)
        sim.failure_detector.notify_crash(10, time=0.0)
        sup.on_GetConfiguration(10)
        sup.on_Subscribe(10)
        # the node stays out of the database once CheckLabels runs
        sup.on_timeout()
        assert sup.database().label_for(10) is None

    def test_timeout_round_robin_sends_configs(self, supervised):
        sim, sup = supervised((10, 11, 12, 13))
        for node in (10, 11, 12, 13):
            sup.on_Subscribe(node)
        sent_before = sim.network.stats.sent_by(0, "SetData")
        for _ in range(4):
            sup.on_timeout()
        assert sim.network.stats.sent_by(0, "SetData") == sent_before + 4

    def test_per_topic_isolation(self, supervised):
        sim, sup = supervised((10, 11))
        sup.on_Subscribe(10, topic="news")
        sup.on_Subscribe(11, topic="sports")
        assert sup.database("news").label_for(10) == label_of(0)
        assert sup.database("sports").label_for(11) == label_of(0)
        assert sup.database("news").label_for(11) is None
        assert sup.topics() == ["news", "sports"]

    def test_the_oracle_names_each_database_mismatch(self, supervised):
        sim, sup = supervised((10, 11))
        for node in (10, 11):
            sup.on_Subscribe(node)
        assert database_findings(sup, [10, 11]) == []
        assert database_findings(sup, [10]) == [(11, "database-ghost", None, label_of(1))]
        assert database_findings(sup, [10, 11, 12]) == [(12, "database-missing", None, None)]


#: (destination, action, node) of one forged message, the node from the pool.
UNADDRESSABLE_REQUESTS = [
    ("supervisor", "Subscribe", None),
    ("supervisor", "GetConfiguration", None),
    ("supervisor", "Unsubscribe", [1]),
    # reaches the supervisor *through the protocol*: sent with the receiver's
    # own label, its ``_integrate`` answers with ``GetConfiguration(node=None)``
    ("subscriber", "Linearize", None),
]


def database_findings(supervisor, members, topic="default"):
    """The oracle's ``database-*`` findings for ``members``; with no
    subscriber objects given, the node conditions it may add are dropped."""
    return [finding for finding in ring_legitimate(supervisor, {}, members, topic).findings
            if finding.condition.startswith("database-")]


BOTH_TOPOLOGIES = pytest.mark.parametrize("spec", [
    SystemSpec(seed=3),
    SystemSpec(seed=3, topology="sharded", shards=2),
], ids=["single", "sharded"])


class TestEvictionPredicate:
    """The Timeout's eviction scan and the per-request ``failure_suspects``
    are one predicate: the scan asks the detector once per member (the rule
    lives in ``FailureDetector.suspects``), adds the supervisor clause, and
    picks exactly the members a request would refuse."""

    @pytest.mark.parametrize("lag", [0.0, 2.0])
    def test_the_scan_is_failure_suspects_over_the_members(self, lag):
        sim = Simulator(SimulatorConfig(seed=5, detection_lag=lag))
        sup = sim.add_node(Supervisor(0), schedule_timeout=False)
        sim.add_node(Supervisor(50), schedule_timeout=False)
        for node_id in range(10, 16):
            sim.add_node(ProtocolNode(node_id), schedule_timeout=False)
        db = sup.database()
        # live members, two soon crashed, a never-existing id, a supervisor id
        for index, ref in enumerate([10, 11, 12, 13, 99, 50, 14, 15]):
            db.put(label_of(index), ref)
        sim.run_until_time(1.0)
        sim.crash_node(11)
        sim.crash_node(12, at=2.0)

        def expect(at, suspected):
            sim.run_until_time(at)
            members = db.members()
            scan = sup._suspected(members)
            assert scan == [ref for ref in members if sup.failure_suspects(ref)]
            assert scan == suspected, at

        forged = [99, 50]
        if lag:  # each crash is suspected ``lag`` after it happened
            expect(1.0, forged)
            expect(2.0, forged)
            expect(3.0, [11, *forged])
        else:    # ... at the very time of the crash
            expect(1.0, [11, *forged])
            expect(2.0, [11, 12, *forged])
        expect(4.5, [11, 12, *forged])
        sup.on_timeout()  # the eviction takes exactly the suspected members
        assert sorted(db.members()) == [10, 13, 14, 15]

    def test_a_detached_supervisor_suspects_only_non_addresses(self):
        sup = Supervisor(0)
        assert sup._suspected([1, None, 2]) == [None]
        assert sup.failure_suspects([1]) and not sup.failure_suspects(7)


class TestForgedRequests:
    """Theorem 8 starts from arbitrary channel contents: a request naming a
    ``node`` that cannot be an address (``None``, unhashable) is ignored at
    the supervisor's ingress; each of these used to raise out of a handler
    and end the run."""

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("dest, action, node", UNADDRESSABLE_REQUESTS,
                             ids=[f"{a}-{node}" for _, a, node in UNADDRESSABLE_REQUESTS])
    def test_run_returns_and_relegitimizes(self, spec, dest, action, node):
        assert node in FORGED["ref"]
        system, peers = build_stable(spec, 8)
        supervisor = system.supervisor_of("default")
        before = dict(supervisor.database("default").entries)
        params = {"node": node}
        if dest == "supervisor":
            dest_id = supervisor.node_id
        else:
            dest_id = peers[0].node_id
            params["label"] = peers[0].view().label
        system.sim.inject_message(dest_id, action, params, topic="default")
        system.run_rounds(10)
        assert system.run_until_legitimate(max_rounds=300)
        assert dict(supervisor.database("default").entries) == before

    def test_unaddressable_node_is_ignored_by_every_request_handler(self, supervised):
        sim, sup = supervised([10])
        sup.on_Subscribe(10)
        for node in [ref for ref in FORGED["ref"] if ref is None or type(ref).__hash__ is None]:
            sup.on_Subscribe(node)
            sup.on_GetConfiguration(node)
            sup.on_Unsubscribe(node)
        assert dict(sup.database().entries) == {label_of(0): 10}
        assert sup.ops_handled == 1
        assert sim.network.stats.total_sent == 1


class TestUnsubscribeFromADatabaseWithAHole:
    """Section 3.1: a corrupted database may lack ``l(n-1)``.  An Unsubscribe
    then has no last holder to move into the freed label; it used to raise
    ``KeyError`` out of the drain."""

    @pytest.mark.parametrize("spec", [SystemSpec(seed=0),  # the Unsubscribe beats the repair
                                      SystemSpec(seed=0, topology="sharded", shards=2)],
                             ids=["single", "sharded"])
    def test_the_run_returns_and_the_repair_relegitimizes(self, spec):
        system, peers = build_stable(spec, 4)
        db = system.supervisor_of("default").database("default")
        holder = db.entries["11"]
        db.remove("11")
        db.put("0001", holder)  # a hole at l(3), an out-of-range label
        system.unsubscribe(peers[0])
        system.run_rounds(5)
        assert system.run_until_legitimate(max_rounds=100)
        assert peers[0].node_id not in db.members()


class TestForgedRequestTopics:
    """The subscriber's rule, at the supervisor: a ``topic`` that is neither
    ``None`` nor a ``str`` is a forged message and the request is dropped.  An
    unhashable one used to raise out of ``databases.setdefault``; ``7`` used
    to become a database key ``sorted(self.databases)`` chokes on."""

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("topic", [["t"], 7], ids=repr)
    @pytest.mark.parametrize("action", sorted(protocol_schema()["supervisor"]))
    def test_run_returns_with_topics_unchanged_and_legitimate(self, spec, action, topic):
        system, peers = build_stable(spec, 8)
        supervisor = system.supervisor_of("default")
        topics, entries = supervisor.topics(), dict(supervisor.database("default").entries)
        system.sim.inject_message(supervisor.node_id, action,
                                  {"node": peers[0].node_id, "topic": topic})
        system.run_rounds(5)
        assert supervisor.topics() == topics
        assert dict(supervisor.database("default").entries) == entries
        assert system.run_until_legitimate(max_rounds=100)

    def test_none_and_empty_topics_still_mean_the_default_topic(self, supervised):
        sim, sup = supervised((10, 11))
        sup.on_Subscribe(10, topic=None)
        sup.on_Subscribe(11, topic="")
        assert sup.topics() == [sup.params.default_topic]
        assert sup.database().members() == [10, 11]


class TestOracleDoesNotRaise:
    """A corrupted database may hold a ref of any hashable type, and the
    legitimacy oracle has to *say* so — ``sorted()`` over ``'x'`` and ints
    used to raise out of ``is_legitimate()``.  The failure detector suspects
    an id with no node behind it, so the supervisor never stores one from a
    request and its Timeout evicts one found in the database.  No message can
    store such a ghost, so the search of ``tests/test_forged_messages.py``
    never meets one: it is put into the database here."""

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("ref", [10**9, "x", (1, 2), -5], ids=repr)
    def test_an_introduced_id_with_no_node_does_not_poison_the_run(self, spec, ref):
        """Thm 8: a forged neighbour id, passed on until a subscriber asks the
        supervisor about it, used to be stored for good."""
        assert ref in FORGED["ref"]
        system, peers = build_stable(spec, 8)
        system.sim.inject_message(peers[0].node_id, "Introduce",
                                  {"node": ref, "label": "0101"}, topic="default")
        system.run_rounds(10)
        assert system.run_until_legitimate(max_rounds=1500)

    @BOTH_TOPOLOGIES
    @pytest.mark.parametrize("action", ["Subscribe", "GetConfiguration"])
    def test_a_request_naming_a_supervisor_does_not_poison_the_run(self, spec, action):
        """Thm 8: a supervisor is never a subscriber.  A forged request
        naming one, its own id or another shard's, used to store it in the
        database for good."""
        for ref in build_stable(spec, 2)[0].supervisor_node_ids():
            system, _ = build_stable(spec, 8)
            supervisor = system.supervisor_of("default")
            system.sim.inject_message(supervisor.node_id, action, {"node": ref},
                                      topic="default")
            system.run_rounds(10)
            assert system.run_until_legitimate(max_rounds=1500), ref
            assert ref not in supervisor.database("default").members()

    @BOTH_TOPOLOGIES
    def test_a_stored_ghost_is_evicted_and_the_system_is_legitimate_again(self, spec):
        system, peers = build_stable(spec, 8)
        supervisor = system.supervisor_of("default")
        db = supervisor.database("default")
        system.sim.inject_message(supervisor.node_id, "Subscribe", {"node": "x"},
                                  topic="default")
        system.run_rounds(3)
        assert "x" not in db.members()  # refused at the ingress
        label = label_of(db.n)
        db.put(label, "x")
        assert system.is_legitimate() is False
        assert database_findings(supervisor, [p.node_id for p in peers]) == [
            ("x", "database-ghost", None, label)]
        assert system.run_until_legitimate(max_rounds=20)
        assert "x" not in db.members()

    def test_members_are_compared_as_a_set(self, supervised):
        sim, sup = supervised((10, 11, 12))
        for node in (12, 10, 11):
            sup.on_Subscribe(node)
        assert database_findings(sup, [10, 11, 12]) == []
        assert database_findings(sup, [11, 12, 10]) == []
        ghost_12 = (12, "database-ghost", None, label_of(0))
        assert database_findings(sup, [10, 11]) == [ghost_12]
        assert database_findings(sup, [10, 11, 12, 13]) == [(13, "database-missing", None, None)]
        assert database_findings(sup, [10, 11, 13]) == [
            (13, "database-missing", None, None), ghost_12]
