"""Tests for the sharded multi-supervisor cluster layer and the facade-base
regressions (clear errors from crash/_resolve, SimulatorConfig copying)."""

import pytest

from repro.api import SystemSpec, build_stable, build_system
from repro.cluster import sharding
from repro.cluster.sharding import ConsistentHashRing
from repro.core.facade import SUPERVISOR_ID, SupervisedPubSub
from repro.sim.engine import SimulatorConfig

TOPICS = [f"topic-{i}" for i in range(8)]


class TestConsistentHashRing:
    def test_owner_is_deterministic(self):
        a, b = ConsistentHashRing(), ConsistentHashRing()
        for ring in (a, b):
            for shard in range(4):
                ring.add_shard(shard)
        assert [a.owner(t) for t in TOPICS] == [b.owner(t) for t in TOPICS]

    def test_duplicate_and_unknown_shards_rejected(self):
        ring = ConsistentHashRing()
        ring.add_shard(1)
        with pytest.raises(ValueError):
            ring.add_shard(1)
        with pytest.raises(ValueError):
            ring.remove_shard(2)

    def test_empty_ring_rejects_lookup(self):
        ring = ConsistentHashRing()
        with pytest.raises(ValueError):
            ring.owner("news")
        with pytest.raises(ValueError):
            ring.preference_order("news")

    def test_removal_only_moves_the_removed_shards_keys(self):
        """The consistent-hashing stability property: removing one shard must
        not change the owner of any key the shard did not own."""
        ring = ConsistentHashRing()
        for shard in range(5):
            ring.add_shard(shard)
        keys = [f"k{i}" for i in range(200)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove_shard(3)
        for key, owner in before.items():
            if owner != 3:
                assert ring.owner(key) == owner
            else:
                assert ring.owner(key) != 3

    def test_preference_order_lists_all_shards_once(self):
        ring = ConsistentHashRing()
        for shard in range(4):
            ring.add_shard(shard)
        order = ring.preference_order("some-topic")
        assert sorted(order) == [0, 1, 2, 3]
        assert order[0] == ring.owner("some-topic")

    @pytest.mark.parametrize("shards", [1, 4])
    def test_building_hashes_nothing_and_the_first_lookup_places_the_ring(
            self, shards, monkeypatch):
        calls = []
        real = sharding.ring_position

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sharding, "ring_position", counted)
        system = build_system(SystemSpec(topology="sharded" if shards > 1 else "single",
                                         shards=shards, seed=1))
        assert calls == []
        system.shard_of("news")
        assert len(system.ring._points) == 64 * shards  # 256 points at K = 4
        assert len(calls) == 64 * shards + 1  # every virtual node, then the topic

    def test_a_shard_removed_before_any_lookup_never_reaches_the_ring(self):
        removed, never = ConsistentHashRing(), ConsistentHashRing()
        for shard in range(4):
            removed.add_shard(shard)
        removed.remove_shard(2)
        for shard in (0, 1, 3):
            never.add_shard(shard)
        assert [removed.owner(t) for t in TOPICS] == [never.owner(t) for t in TOPICS]
        assert len(removed._points) == 3 * removed.virtual_nodes

    def test_a_shard_added_after_a_lookup_is_placed_by_the_next(self):
        late, upfront = ConsistentHashRing(), ConsistentHashRing()
        late.add_shard(0)
        late.add_shard(1)
        late.owner("warm-up")
        late.add_shard(2)
        for shard in range(3):
            upfront.add_shard(shard)
        assert [late.preference_order(t) for t in TOPICS] == \
            [upfront.preference_order(t) for t in TOPICS]

    def test_assign_balanced_keeps_loads_within_one(self):
        ring = ConsistentHashRing()
        for shard in range(4):
            ring.add_shard(shard)
        load = {s: 0 for s in range(4)}
        for i in range(16):
            load[ring.assign_balanced(f"topic-{i}", load)] += 1
        assert sum(load.values()) == 16
        assert max(load.values()) - min(load.values()) <= 1


class TestShardedPubSub:
    def test_requires_at_least_one_shard(self):
        with pytest.raises(ValueError):
            SupervisedPubSub(shards=0)

    def test_one_shard_serves_every_topic_from_supervisor_zero(self):
        system = SupervisedPubSub(seed=3)
        assert system.supervisor_node_ids() == [SUPERVISOR_ID]
        assert system.supervisor is system.supervisors[SUPERVISOR_ID]
        for topic in TOPICS:
            assert system.supervisor_of(topic) is system.supervisors[SUPERVISOR_ID]
        system.add_subscriber(topics=TOPICS)
        assert set(system.topic_assignment().values()) == {SUPERVISOR_ID}

    def test_topics_balanced_and_stabilized(self):
        cluster = build_stable(SystemSpec(topology="sharded", shards=4, seed=3),
                                   topics=TOPICS, subscribers_per_topic=4)[0]
        counts = cluster.shard_topic_counts()
        assert sum(counts.values()) >= len(TOPICS)
        assert max(counts.values()) - min(counts.values()) <= 1
        assert all(cluster.is_legitimate(t) for t in TOPICS)

    def test_publication_flow_on_sharded_topic(self):
        cluster = build_stable(SystemSpec(topology="sharded", shards=2, seed=4),
                                   topics=TOPICS[:2], subscribers_per_topic=5)[0]
        members = cluster.members(TOPICS[0])
        pub = cluster.publish(members[0], b"sharded news", TOPICS[0])
        assert cluster.run_until_publications_converged(TOPICS[0],
                                                        expected_keys={pub.key},
                                                        max_rounds=400)
        assert cluster.all_subscribers_have(pub.key, TOPICS[0])

    def test_requests_route_to_owning_shard_only(self):
        cluster = build_stable(SystemSpec(topology="sharded", shards=4, seed=5),
                                   topics=TOPICS, subscribers_per_topic=4)[0]
        cluster.run_rounds(30)
        stats = cluster.message_stats()
        assignment = cluster.topic_assignment()
        # Every supervisor-bound request for a topic must have hit its shard:
        # a shard that owns no subscribed topics would have received nothing.
        for shard, supervisor in cluster.supervisors.items():
            owned = [t for t, s in assignment.items() if s == shard and t in TOPICS]
            if owned:
                assert stats.received_by(shard) > 0
            for topic in owned:
                assert supervisor.database(topic).n == 4

    def test_crash_supervisor_rebalances_and_reconverges(self):
        cluster = build_stable(SystemSpec(topology="sharded", shards=4, seed=6),
                                   topics=TOPICS, subscribers_per_topic=4)[0]
        victim = cluster.live_shard_ids()[1]
        before = cluster.topic_assignment()
        moved = cluster.crash_supervisor(victim)
        assert moved == sorted(t for t, s in before.items() if s == victim)
        after = cluster.topic_assignment()
        for topic, shard in after.items():
            assert shard != victim
            if topic not in moved:
                assert shard == before[topic]
        for topic in moved:
            assert cluster.run_until_legitimate(topic, max_rounds=800), topic

    def test_crash_supervisor_errors(self):
        cluster = SupervisedPubSub(shards=2, seed=7)
        with pytest.raises(ValueError):
            cluster.crash_supervisor(99)
        cluster.crash_supervisor(0)
        with pytest.raises(ValueError):
            cluster.crash_supervisor(0)  # already crashed
        with pytest.raises(ValueError):
            cluster.crash_supervisor(1)  # last live supervisor
        with pytest.raises(ValueError, match="cannot crash the last live supervisor"):
            SupervisedPubSub(seed=7).crash_supervisor(SUPERVISOR_ID)  # the paper's one

    def test_read_only_inspection_does_not_pin_topics(self):
        """Legitimacy queries for unknown topics (including the never-used
        default topic) must not consume bounded-loads assignment slots."""
        cluster = SupervisedPubSub(shards=2, seed=12)
        cluster.is_legitimate("no-such-topic")
        cluster.legitimacy_report("another-unknown")
        cluster.run_until_legitimate(max_rounds=5)
        assert cluster.topic_assignment() == {}
        assert all(count == 0 for count in cluster.shard_topic_counts().values())
        # Prospective lookups are stable and consistent with later pinning.
        prospective = cluster.shard_of("news", pin=False)
        cluster.add_subscriber("news")
        assert cluster.topic_assignment() == {"news": prospective}

    def test_surviving_topics_untouched_by_shard_crash(self):
        cluster = build_stable(SystemSpec(topology="sharded", shards=4, seed=8),
                                   topics=TOPICS, subscribers_per_topic=4)[0]
        victim = cluster.live_shard_ids()[0]
        survivors = [t for t, s in cluster.topic_assignment().items()
                     if s != victim and t in TOPICS]
        edges_before = {t: cluster.explicit_edges(t) for t in survivors}
        cluster.crash_supervisor(victim)
        cluster.run_rounds(30)
        for topic in survivors:
            assert cluster.is_legitimate(topic)
            assert cluster.explicit_edges(topic) == edges_before[topic]


class TestFacadeRegressions:
    """Satellite fixes: clear ValueError from crash/_resolve and no mutation
    of a caller-supplied SimulatorConfig."""

    def test_crash_with_supervisor_id_raises_value_error(self):
        system, _ = build_stable(SystemSpec(seed=9), 4)
        with pytest.raises(ValueError, match="supervisor"):
            system.crash(SUPERVISOR_ID)

    def test_crash_with_unknown_id_raises_value_error(self):
        system, _ = build_stable(SystemSpec(seed=9), 4)
        with pytest.raises(ValueError, match="unknown subscriber"):
            system.crash(12345)

    def test_resolve_errors_on_sharded_supervisor_ids(self):
        cluster = SupervisedPubSub(shards=3, seed=10)
        cluster.add_subscriber("news")
        for shard in range(3):
            with pytest.raises(ValueError, match="supervisor"):
                cluster.crash(shard)
        with pytest.raises(ValueError, match="unknown subscriber"):
            cluster.subscribe(999, "news")

    def test_caller_supplied_sim_config_is_copied_not_mutated(self):
        config = SimulatorConfig(seed=123, min_delay=0.2, max_delay=0.9)
        system = SupervisedPubSub(seed=77, sim_config=config)
        assert system.sim.config is not config
        assert config.seed == 123  # untouched by the facade
        assert system.sim.config.seed == 123  # sim_config wins over seed=
        # Mutating the caller's object afterwards must not leak into the system.
        config.seed = 999
        assert system.sim.config.seed == 123

    def test_sharded_facade_also_copies_config(self):
        config = SimulatorConfig(seed=5)
        cluster = SupervisedPubSub(shards=2, sim_config=config)
        assert cluster.sim.config is not config
