"""PR 10 tests: the columnar node-state arena.

Two claims are pinned here:

* **Equivalence** — the arena's flat columns (dense node list,
  ``timeout_count`` int64 column) are views over exactly the state the
  object attributes report — after a crashy storm and after
  :meth:`~repro.cluster.ShardedPubSub.crash_supervisor` rebalancing — storms
  produce identical event logs run-to-run at 2k and 20k nodes on both
  built-in schedulers, and the heap and the wheel agree event-for-event.
* **Scale** — the 100k-node smoke: heap-vs-wheel event-log parity at the
  arena's headline size (downsized under ``REPRO_SMOKE_FAST=1`` so the CI
  matrix stays fast; the full size runs in the default local suite).
"""

from __future__ import annotations

import os

from repro.api import SystemSpec, build_stable
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import ProtocolNode

SMOKE_FAST = os.environ.get("REPRO_SMOKE_FAST") == "1"

#: The headline scale (matches the core_100k_wheel bench case); CI's fast
#: mode keeps the same code paths at a size the matrix can afford.
SMOKE_NODES = 5_000 if SMOKE_FAST else 100_000


class _Recorder(ProtocolNode):
    """Logs every handled event as ``(now, kind, node_id)``."""

    __slots__ = ("log", "fanout")

    def __init__(self, node_id, log, fanout):
        super().__init__(node_id)
        self.log = log
        self.fanout = fanout

    def on_timeout(self):
        self.log.append((self.now, "timeout", self.node_id))
        self.send(self.node_id % self.fanout + 1, "Ping", sender=self.node_id)

    def on_Ping(self, sender, topic=None):
        self.log.append((self.now, "ping", self.node_id))


def _storm(scheduler: str, nodes: int, rounds: int, seed: int = 4242,
           crash: bool = False):
    """Run a recorder storm; returns ``(log, sim)``."""
    sim = Simulator(SimulatorConfig(seed=seed, scheduler=scheduler))
    log = []
    for i in range(nodes):
        sim.add_node(_Recorder(i + 1, log, nodes))
    if crash:
        # Crash a spread of nodes mid-run so the crashed-set delivery
        # checks see traffic.
        period = sim.config.timeout_period
        for victim in range(1, nodes + 1, max(nodes // 7, 1)):
            sim.crash_node(victim, at=(rounds / 2) * period)
    sim.run_rounds(rounds)
    return log, sim


class TestArenaObjectEquivalence:
    def test_columns_mirror_object_state_after_crashy_storm(self):
        _, sim = _storm("wheel", 300, 6, crash=True)
        arena = sim.arena
        assert len(sim.nodes) == 300
        for node_id, node in sim.nodes.items():
            assert arena.nodes[node_id] is node
            assert arena.timeout_count[node_id] == node.timeout_count
        # the storm actually crashed someone, or the test proves nothing
        assert len(sim.live_nodes()) < 300

    def test_sparse_ids_fall_back_to_objects(self):
        sim = Simulator(SimulatorConfig(seed=9, scheduler="wheel"))
        log = []
        for i in range(16):
            sim.add_node(_Recorder(i + 1, log, 16))
        forged = _Recorder(10**9, log, 16)
        sim.add_node(forged)
        assert forged._arena_index == -1
        assert forged not in sim.arena.nodes
        assert len(sim.arena.nodes) < 10**6  # the columns did not balloon
        sim.run_rounds(4)
        assert forged.timeout_count > 0  # counted via the object slot
        assert sim.nodes[10**9] is forged

    def test_columns_mirror_objects_after_supervisor_crash_rebalancing(self):
        topics = [f"topic-{i}" for i in range(6)]
        cluster = build_stable(SystemSpec(topology="sharded", shards=4,
                                          seed=17),
                               topics=topics, subscribers_per_topic=3)[0]
        victim = cluster.live_shard_ids()[1]
        moved = cluster.crash_supervisor(victim)
        arena = cluster.sim.arena
        assert cluster.sim.nodes[victim].crashed
        for node_id, node in cluster.sim.nodes.items():
            if node._arena_index != -1:
                assert arena.nodes[node_id] is node
                assert arena.timeout_count[node_id] == node.timeout_count
        for topic in moved:
            assert cluster.run_until_legitimate(topic, max_rounds=800), topic

    def test_same_seed_same_log_2k_both_schedulers(self):
        for scheduler in ("heap", "wheel"):
            first, _ = _storm(scheduler, 2_000, 3)
            second, _ = _storm(scheduler, 2_000, 3)
            assert first == second

    def test_heap_wheel_parity_2k_and_20k(self):
        for nodes, rounds in ((2_000, 3), (20_000, 2)):
            heap_log, heap_sim = _storm("heap", nodes, rounds)
            wheel_log, wheel_sim = _storm("wheel", nodes, rounds)
            assert heap_sim.steps_executed == wheel_sim.steps_executed
            assert heap_log == wheel_log
            # and the columns agree between the two schedulers as well
            assert (heap_sim.arena.timeout_count
                    == wheel_sim.arena.timeout_count)


class TestHundredKSmoke:
    def test_heap_wheel_event_log_parity_at_headline_scale(self):
        heap_log, heap_sim = _storm("heap", SMOKE_NODES, 2)
        wheel_log, wheel_sim = _storm("wheel", SMOKE_NODES, 2)
        assert heap_sim.steps_executed == wheel_sim.steps_executed
        assert heap_sim.steps_executed >= 3 * SMOKE_NODES  # it stormed
        assert heap_log == wheel_log
        # flat columns cover the whole population on both schedulers
        assert len(wheel_sim.arena.nodes) >= SMOKE_NODES
        assert sum(1 for n in wheel_sim.arena.nodes if n is not None) \
            == SMOKE_NODES
