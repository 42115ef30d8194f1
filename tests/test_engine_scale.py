"""The engine at scale: one event order, one Timeout count per node.

* **Parity** — storms produce identical event logs run-to-run at 2k nodes on
  both built-in schedulers, and the heap and the wheel agree event-for-event
  at every size of :data:`PARITY_STORMS`: 2k to 50k nodes and — the smoke —
  100k (downsized under ``REPRO_SMOKE_FAST=1`` so the CI matrix stays fast;
  the full size runs in the default local suite).
* **Timeout accounting** — ``ProtocolNode.timeout_count`` is exactly the
  number of Timeouts the node fired: after a crashy storm, for a node
  registered under a forged id, and after
  :meth:`~repro.cluster.ShardedPubSub.crash_supervisor` rebalancing.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.api import SystemSpec, build_stable
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import ProtocolNode

SMOKE_FAST = os.environ.get("REPRO_SMOKE_FAST") == "1"

#: The largest storm; CI's fast mode keeps the same code paths at a size the
#: matrix can afford.
SMOKE_NODES = 5_000 if SMOKE_FAST else 100_000

#: ``(nodes, rounds)`` of every heap-vs-wheel storm: few nodes deep in time
#: (2k x 12: many wheel rollovers and bucket reuse cycles), many nodes briefly
#: (working sets past cache), and the smoke.
PARITY_STORMS = [(2_000, 3), (2_000, 12), (5_000, 10), (20_000, 2),
                 (50_000, 2), (SMOKE_NODES, 2)]


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


def _fingerprint(sim):
    stats = sim.network.stats
    return (sim.steps_executed, stats.total_sent, stats.total_delivered, sim.now)


def _logged_timeouts(log) -> Counter:
    return Counter(node_id for _, kind, node_id in log if kind == "timeout")


class TestTimeoutAccounting:
    def test_timeout_count_is_the_logged_count_after_crashy_storm(self):
        log, sim = _storm("wheel", 300, 6, crash=True)
        assert len(sim.nodes) == 300
        assert sim.timeout_counts == {
            node_id: _logged_timeouts(log)[node_id] for node_id in sim.nodes}
        # the storm actually crashed someone, or the test proves nothing
        assert sum(not node.crashed for node in sim.nodes.values()) < 300

    def test_forged_id_node_fires_and_is_reachable(self):
        sim = Simulator(SimulatorConfig(seed=9, scheduler="wheel"))
        log = []
        for i in range(16):
            sim.add_node(_Recorder(i + 1, log, 16))
        forged = _Recorder(10**9, log, 16)
        sim.add_node(forged)
        sim.run_rounds(4)
        assert forged.timeout_count == _logged_timeouts(log)[10**9] > 0
        assert sim.nodes[10**9] is forged

    def test_timeout_count_after_supervisor_crash_rebalancing(self, monkeypatch):
        fired = Counter()
        for cls in (Subscriber, Supervisor):
            def counting(self, _inner=cls.on_timeout):
                fired[self.node_id] += 1
                _inner(self)
            monkeypatch.setattr(cls, "on_timeout", counting)
        topics = [f"topic-{i}" for i in range(6)]
        cluster = build_stable(SystemSpec(topology="sharded", shards=4,
                                          seed=17),
                               topics=topics, subscribers_per_topic=3)[0]
        victim = cluster.live_shard_ids()[1]
        moved = cluster.crash_supervisor(victim)
        assert cluster.sim.nodes[victim].crashed
        for topic in moved:
            assert cluster.run_until_legitimate(topic, max_rounds=800), topic
        assert cluster.sim.timeout_counts == {
            node_id: fired[node_id] for node_id in cluster.sim.nodes}
        assert min(fired.values()) > 0


class TestSchedulerParity:
    def test_same_seed_same_log_2k_both_schedulers(self):
        for scheduler in ("heap", "wheel"):
            first, _ = _storm(scheduler, 2_000, 3)
            second, _ = _storm(scheduler, 2_000, 3)
            assert first == second

    @pytest.mark.parametrize("nodes, rounds", PARITY_STORMS,
                             ids=[f"{n}x{r}" for n, r in PARITY_STORMS])
    def test_heap_wheel_event_log_parity(self, nodes, rounds):
        """The same per-event log — same timestamps, same kinds, same handling
        order — whether the engine drains a binary heap or the timeout wheel
        (with its time-only bucket sort and auto width)."""
        heap_log, heap_sim = _storm("heap", nodes, rounds)
        wheel_log, wheel_sim = _storm("wheel", nodes, rounds)
        # The cheap aggregate fingerprint first for a readable failure, then
        # the full log.
        assert _fingerprint(heap_sim) == _fingerprint(wheel_sim)
        assert heap_sim.steps_executed >= (rounds + 1) * nodes  # it stormed
        assert heap_log == wheel_log
        assert heap_sim.timeout_counts == wheel_sim.timeout_counts
        # every node of the population fired on both schedulers
        assert len(wheel_sim.nodes) == nodes
        assert min(wheel_sim.timeout_counts.values()) > 0
