"""Integration tests: the full system converging, staying stable, and
disseminating publications under joins, leaves, crashes and multiple topics."""

from unittest.mock import Mock

import pytest

from repro import ProtocolParams
from repro.analysis.convergence import edge_set_signature
from repro.core import messages as msg
from repro.core.labels import label_of
from repro.api import SystemSpec, build_stable
from repro.workloads.publications import scatter_publications


class TestConvergenceFromJoins:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_join_only_systems_stabilize(self, n):
        system, _ = build_stable(SystemSpec(seed=100 + n), n)
        report = system.legitimacy_report()
        assert report.legitimate, report.problems

    def test_supervisor_database_matches_membership(self, stable_system_8):
        system, subscribers = stable_system_8
        db = system.supervisor.database()
        assert sorted(db.members()) == sorted(s.node_id for s in subscribers)
        assert set(db.entries) == {label_of(i) for i in range(8)}

    def test_explicit_edges_match_ideal_topology(self, stable_system_8):
        system, _ = stable_system_8
        from repro.core.skip_ring import SkipRingTopology
        # Compare edge counts: the explicit undirected edge set must equal
        # Definition 2's edge set of SR(8) (n a power of two: exactly what the
        # subscribers compute locally).
        ideal = SkipRingTopology(8).edges()
        assert len(system.explicit_edges()) == len(ideal)

    def test_incremental_joins_keep_restabilizing(self, empty_system):
        system = empty_system(seed=5)
        for i in range(6):
            system.add_subscriber()
            assert system.run_until_legitimate(max_rounds=400), f"failed after join {i}"


class TestClosure:
    def test_topology_is_frozen_in_legitimate_state(self, fresh_system):
        system, _ = fresh_system(n=8, seed=21)
        signature = edge_set_signature(system.explicit_edges())
        for _ in range(10):
            system.run_rounds(10)
            assert edge_set_signature(system.explicit_edges()) == signature
        assert system.is_legitimate()

    def test_supervisor_database_is_frozen(self, fresh_system):
        system, _ = fresh_system(n=8, seed=22)
        before = dict(system.supervisor.database().entries)
        system.run_rounds(80)
        assert system.supervisor.database().entries == before

    def test_a_stable_ring_is_quiescent_after_its_first_hit(self):
        """No long ``Linearize`` walk outlives the first legitimate check:
        delegations travel the shortcuts in O(log n) hops.  Walking the sorted
        list one position per hop, the same 100 rounds carried 3 000."""
        system, _ = build_stable(SystemSpec(seed=0), 256)
        stats = system.sim.network.stats
        baseline = stats.snapshot()
        system.run_rounds(100)
        assert stats.delta(baseline).sent_by_action[msg.LINEARIZE] <= 100


class TestUnsubscribeAndCrash:
    def test_unsubscribe_restores_legitimacy(self, fresh_system):
        system, subscribers = fresh_system(n=8, seed=31)
        system.unsubscribe(subscribers[3])
        assert system.run_until_legitimate(max_rounds=600)
        assert len(system.members()) == 7
        view = subscribers[3].view(create=False)
        assert view.label is None

    def test_unsubscribed_node_disconnects(self, fresh_system):
        # Lemma 6: the departing subscriber eventually loses all connections.
        system, subscribers = fresh_system(n=8, seed=32)
        leaver = subscribers[0]
        system.unsubscribe(leaver)
        assert system.run_until_legitimate(max_rounds=600)
        system.run_rounds(30)
        view = leaver.view(create=False)
        assert view.neighbor_refs() == set()
        # and no remaining member still points at the leaver
        for member in system.members():
            member_view = system.subscribers[member].view(create=False)
            assert leaver.node_id not in member_view.neighbor_refs()

    def test_crash_recovery(self, fresh_system):
        system, subscribers = fresh_system(n=10, seed=33)
        system.crash(subscribers[2])
        system.crash(subscribers[7])
        assert system.run_until_legitimate(max_rounds=1000)
        assert len(system.members()) == 8

    def test_crash_of_minimum_label_holder(self, fresh_system):
        system, subscribers = fresh_system(n=8, seed=34)
        db = system.supervisor.database()
        minimum_ref = db.entries[label_of(0)]
        system.crash(minimum_ref)
        assert system.run_until_legitimate(max_rounds=1000)
        assert minimum_ref not in system.members()

    def test_messages_to_crashed_nodes_are_dropped(self, fresh_system):
        system, subscribers = fresh_system(n=6, seed=35)
        system.crash(subscribers[0])
        system.run_rounds(20)
        assert system.sim.network.stats.drops_by_reason["to_crashed"] > 0


class TestPublications:
    def test_flooded_publication_reaches_everyone(self, fresh_system):
        system, subscribers = fresh_system(n=12, seed=41)
        publication = system.publish(subscribers[4], b"breaking")
        system.run_rounds(15)
        assert system.all_subscribers_have(publication.key)

    def test_scattered_publications_converge_via_anti_entropy(self, fresh_system):
        system, subscribers = fresh_system(n=8, seed=42)
        keys = scatter_publications(system, subscribers, count=10, seed=7)
        assert system.run_until_publications_converged(expected_keys=keys, max_rounds=600)

    def test_anti_entropy_alone_converges_without_flooding(self):
        params = ProtocolParams(enable_flooding=False)
        system, subscribers = build_stable(SystemSpec(seed=43, params=params), 8)
        publication = system.publish(subscribers[0], b"slow news")
        assert system.run_until_publications_converged(expected_keys={publication.key},
                                                       max_rounds=600)

    def test_publication_closure(self, fresh_system):
        # Theorem 23: once all tries agree, no CheckAndPublish traffic remains.
        system, subscribers = fresh_system(n=6, seed=44)
        publication = system.publish(subscribers[0], b"x")
        assert system.run_until_publications_converged(expected_keys={publication.key},
                                                       max_rounds=400)
        stats_before = system.sim.network.stats.snapshot()
        system.run_rounds(40)
        delta = system.sim.network.stats.delta(stats_before)
        assert delta.sent_by_action["CheckAndPublish"] == 0
        assert delta.sent_by_action["Publish"] == 0

    def test_new_subscriber_receives_old_publications(self, fresh_system):
        system, subscribers = fresh_system(n=6, seed=45)
        old = system.publish(subscribers[1], b"history")
        system.run_rounds(10)
        newcomer = system.add_subscriber()
        assert system.run_until_legitimate(max_rounds=400)
        assert system.run_until_publications_converged(expected_keys={old.key},
                                                       max_rounds=600)
        assert newcomer.has_publication(old.key)


class TestMultiTopic:
    def test_topics_are_isolated(self, empty_system):
        system = empty_system(seed=51)
        news = [system.add_subscriber("news") for _ in range(4)]
        sports = [system.add_subscriber("sports") for _ in range(3)]
        assert system.run_until_legitimate("news", max_rounds=400)
        assert system.run_until_legitimate("sports", max_rounds=400)
        publication = system.publish(news[0], b"goal!", topic="news")
        system.run_rounds(20)
        assert all(s.has_publication(publication.key, "news") for s in news)
        assert not any(s.has_publication(publication.key, "sports") for s in sports)

    def test_peer_subscribed_to_multiple_topics(self, empty_system):
        system = empty_system(seed=52)
        both = system.add_subscriber(topics=["news", "sports"])
        for _ in range(3):
            system.add_subscriber("news")
            system.add_subscriber("sports")
        assert system.run_until_legitimate(max_rounds=600)
        assert both.label("news") is not None
        assert both.label("sports") is not None
        assert set(both.views) >= {"news", "sports"}


class TestTheorem5AndTheorem7Counters:
    def test_supervisor_request_rate_is_constant(self, fresh_system):
        system, _ = fresh_system(n=16, seed=61)
        base_requests = system.supervisor_request_count()
        base_intervals = system.sim.completed_timeout_intervals()
        system.run_rounds(40)
        requests = system.supervisor_request_count() - base_requests
        intervals = system.sim.completed_timeout_intervals() - base_intervals
        assert intervals > 0
        assert requests / intervals < 2.0

    def test_supervisor_constant_messages_per_operation(self, empty_system):
        system = empty_system(seed=62)
        peers = [system.add_subscriber() for _ in range(10)]
        assert system.run_until_legitimate(max_rounds=600)
        for peer in peers[:3]:
            system.unsubscribe(peer)
        assert system.run_until_legitimate(max_rounds=600)
        supervisor = system.supervisor
        assert supervisor.ops_handled > 0
        assert supervisor.op_response_messages / supervisor.ops_handled <= 2.0


class TestOracleIsLookedUpPerCall:
    """``bench/trace.py`` counts oracle checks (``analysis.convergence.checks``)
    by replacing the two predicates on :mod:`repro.analysis.convergence`; a facade
    that bound them at import time would silently read 0."""

    @pytest.mark.parametrize("spec", [
        SystemSpec(seed=63), SystemSpec(seed=63, topology="sharded", shards=2)])
    def test_a_replaced_predicate_is_seen_by_the_facade(self, spec, monkeypatch):
        from repro.analysis import convergence
        system, _ = build_stable(spec, 6)
        ring = Mock(wraps=convergence.ring_legitimate)
        publications = Mock(wraps=convergence.publications_converged)
        monkeypatch.setattr(convergence, "ring_legitimate", ring)
        monkeypatch.setattr(convergence, "publications_converged", publications)
        assert system.is_legitimate() and system.publications_converged()
        assert (ring.call_count, publications.call_count) == (1, 1)
        assert system.run_until_legitimate() and system.run_until_publications_converged()
        assert ring.call_count >= 2 and publications.call_count >= 2
