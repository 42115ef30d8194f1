"""The engine at scale: one event order, one Timeout count per node.

* **Order** — storms produce identical event logs run-to-run at 2k nodes,
  and the stream of events the engine executes is ``heapq``'s pop order of
  the same events at every size of :data:`PARITY_STORMS` — 2k to 50k nodes
  and, the smoke, 100k (downsized under ``REPRO_SMOKE_FAST=1`` so the CI
  matrix stays fast; the full size runs in the default local suite) — and
  in a scenario under a link adversary whose delay spike lands deliveries
  into the bucket the drain is walking.
* **Timeout accounting** — ``ProtocolNode.timeout_count`` is exactly the
  number of Timeouts the node fired: after a crashy storm, for a node
  registered under a forged id, and after
  :meth:`~repro.SupervisedPubSub.crash_supervisor` rebalancing.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import replace

import pytest
from conftest import assert_heapq_order, queued_events

from repro.api import SystemSpec, build_stable
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import ProtocolNode

SMOKE_FAST = os.environ.get("REPRO_SMOKE_FAST") == "1"

#: The largest storm; CI's fast mode keeps the same code paths at a size the
#: matrix can afford.
SMOKE_NODES = 5_000 if SMOKE_FAST else 100_000

#: ``(nodes, rounds)`` of every wheel-vs-``heapq`` storm: few nodes deep in time
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


def _storm(nodes: int, rounds: int, seed: int = 4242, crash: bool = False):
    """Run a recorder storm; returns ``(log, sim)``."""
    sim = Simulator(SimulatorConfig(seed=seed))
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


def _logged_timeouts(log) -> Counter:
    return Counter(node_id for _, kind, node_id in log if kind == "timeout")


class TestTimeoutAccounting:
    def test_timeout_count_is_the_logged_count_after_crashy_storm(self):
        log, sim = _storm(300, 6, crash=True)
        assert len(sim.nodes) == 300
        assert sim.timeout_counts == {
            node_id: _logged_timeouts(log)[node_id] for node_id in sim.nodes}
        # the storm actually crashed someone, or the test proves nothing
        assert sum(not node.crashed for node in sim.nodes.values()) < 300

    def test_forged_id_node_fires_and_is_reachable(self):
        sim = Simulator(SimulatorConfig(seed=9))
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


class TestWheelOrder:
    def test_same_seed_same_log_2k(self):
        first, _ = _storm(2_000, 3)
        second, _ = _storm(2_000, 3)
        assert first == second

    @pytest.mark.parametrize("nodes, rounds", PARITY_STORMS,
                             ids=[f"{n}x{r}" for n, r in PARITY_STORMS])
    def test_the_wheel_emits_heapq_order_in_a_storm(self, wheel_stream,
                                                     nodes, rounds):
        """Same timestamps, same handling order as a binary heap, whatever
        the wheel's time-only bucket sort and auto width do."""
        stream, _ = wheel_stream
        _, sim = _storm(nodes, rounds)
        assert len(stream) == sim.steps_executed >= (rounds + 1) * nodes
        assert_heapq_order(sim, stream)
        # every node of the population fired
        assert len(sim.nodes) == nodes
        assert min(sim.timeout_counts.values()) > 0

    def test_the_wheel_emits_heapq_order_under_a_link_adversary(self, wheel_stream):
        """Loss, duplication and a delay spike that lands deliveries inside
        the bucket the drain is walking, where they run in place."""
        stream, inserted = wheel_stream
        lossy = get_scenario("lossy-network")
        spec = lossy.with_overrides(phases=tuple(
            replace(phase, delay_spike_factor=0.05) for phase in lossy.phases))
        runner = ScenarioRunner(spec, seed=3)
        assert runner.run().passed
        sim = runner.system.sim
        assert inserted and len(stream) == sim.steps_executed
        assert_heapq_order(sim, stream)


class TestDerivedTotals:
    """The network keeps no running totals: ``total_sent`` and
    ``total_delivered`` are computed when read, and each equals a count kept
    apart from the engine — the sends a wrapped ``_send_fast`` logged and
    the pings the nodes handled — as does a :meth:`ChannelStats.delta` over
    a later window."""

    @pytest.fixture
    def sends(self, monkeypatch):
        """Every ``(dest, action, params)`` handed to a simulator's send path."""
        logged = []
        bind = Simulator._bind_fast_submit

        def logging_bind(self):
            bind(self)
            send_fast = self._send_fast

            def logging(sender, topic, batch):
                logged.extend(batch)
                send_fast(sender, topic, batch)

            self._send_fast = logging

        monkeypatch.setattr(Simulator, "_bind_fast_submit", logging_bind)
        return logged

    @staticmethod
    def _assert_exact(sim, sends, run_more):
        stats = sim.network.stats
        assert queued_events(sim.scheduler)
        assert stats.total_sent == len(sends) > 0
        baseline = stats.snapshot()
        sent, delivered, logged = stats.total_sent, stats.total_delivered, len(sends)
        run_more()
        delta = stats.delta(baseline)
        assert delta.total_sent == stats.total_sent - sent == len(sends) - logged > 0
        assert delta.total_delivered == stats.total_delivered - delivered > 0

    def test_after_a_crashy_storm(self, sends):
        log, sim = _storm(300, 6, crash=True)
        assert sum(node.crashed for node in sim.nodes.values()) > 0
        pings = sum(1 for _, kind, _ in log if kind == "ping")
        assert sim.network.stats.total_delivered == pings > 0
        self._assert_exact(sim, sends, lambda: sim.run_rounds(2))
        assert sim.network.stats.total_delivered == sum(
            1 for _, kind, _ in log if kind == "ping")

    def test_after_a_lossy_duplicating_scenario(self, wheel_stream, sends):
        lossy = get_scenario("lossy-network")
        spec = lossy.with_overrides(phases=tuple(
            replace(phase, delay_spike_factor=0.05) for phase in lossy.phases))
        runner = ScenarioRunner(spec, seed=3)
        assert runner.run().passed
        sim = runner.system.sim
        stats = sim.network.stats
        assert stats.duplicated > 0 and stats.drops_by_reason["adversary_loss"] > 0
        self._assert_exact(sim, sends, lambda: runner.system.run_rounds(3))
        stream, inserted = wheel_stream  # every event executed, once
        assert inserted and len(stream) == sim.steps_executed
        assert_heapq_order(sim, stream)
