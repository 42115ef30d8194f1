"""One reference for the engine's drain loop: ``Simulator.step``.

``run_until_time`` drains whole time windows at once; ``step`` pops and
handles a single event.  The contract is that the two are indistinguishable
— same handler log, counters, drop accounting and latency histogram — on
every scheduler, with telemetry on or off, and under a link adversary that
breaks the window's safety argument (a ``DelaySpike`` with ``factor < 1``
puts deliveries closer than ``min_delay``).
"""

from __future__ import annotations

import pytest

from repro.scenarios.adversary import LinkAdversary
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import ProtocolNode
from repro.sim.scheduler import HeapScheduler

NODES = 40
DEADLINES = (1.0, 1.0, 4.25, 7.5, 12.0)


class _SubHeap(HeapScheduler):
    """Not exactly a built-in type: takes the engine's generic pushes."""


class _Relay(ProtocolNode):
    """Logs every handled event; pings two peers per timeout and relays
    each ping onward for a few hops, so sends also happen in handlers."""

    __slots__ = ("log",)

    def __init__(self, node_id, log):
        super().__init__(node_id)
        self.log = log

    def on_timeout(self):
        self.log.append((self.now, "timeout", self.node_id))
        for step in (1, 7):
            self.send((self.node_id + step) % NODES + 1, "Ping",
                      origin=self.node_id, hops=2)

    def on_Ping(self, origin, hops, topic=None):
        self.log.append((self.now, "ping", self.node_id, origin, hops))
        if hops:
            self.send((self.node_id * 3 + origin) % NODES + 1, "Ping",
                      origin=origin, hops=hops - 1)
        elif origin == 9:
            # zero delay from inside a handler: lands in the open window
            self.sim.inject_message(origin, "Ping", {"origin": 0, "hops": 0},
                                    delay=0.0)


def _drain_by_steps(sim: Simulator, deadline: float) -> None:
    """The reference drain: one ``step()`` per due event."""
    while True:
        upcoming = sim.scheduler.next_time()
        if upcoming is None or upcoming > deadline:
            break
        sim.step()
    sim.now = max(sim.now, deadline)


def _build(scheduler, mode):
    sim = Simulator(SimulatorConfig(seed=77, telemetry=(mode == "telemetry"),
                                    scheduler="heap" if scheduler == "heap"
                                    else "wheel"))
    if scheduler == "subheap":
        sim.scheduler = _SubHeap()
    log = []
    for i in range(NODES):
        sim.add_node(_Relay(i + 1, log))
    sim.crash_node(5, at=4.3)
    sim.call_at(5.1, lambda: sim.inject_message(
        9, "Ping", {"origin": 0, "hops": 1}, delay=0.0))
    if mode == "adversary":
        def install():
            adversary = LinkAdversary(sim.adversary_rng(), loss_rate=0.1,
                                      duplicate_rate=0.1)
            # starts with pre-install records and Message-form copies in flight
            adversary.add_partition("cut", [range(1, 11)], start=1.75,
                                    heal_time=6.0)
            # deliveries 10x closer than min_delay: inside the drain's window
            adversary.add_delay_spike(2.0, 8.0, factor=0.01)
            sim.install_adversary(adversary)
        sim.call_at(1.5, install)
    return sim, log


def _observe(sim, log):
    stats = sim.network.stats
    latency = stats.delivery_latency
    return {
        "log": log,
        "now": sim.now,
        "steps": sim.steps_executed,
        "summary": stats.to_summary_dict(),
        "drops": stats.drops_by_reason,
        "latency": None if latency is None else latency.to_dict(),
        "timeouts": sim.timeout_counts,
        "in_flight": sim.network.in_flight(),
    }


@pytest.mark.parametrize("mode", ["plain", "telemetry", "adversary"])
@pytest.mark.parametrize("scheduler", ["wheel", "heap", "subheap"])
def test_run_until_time_reproduces_the_step_drain(scheduler, mode):
    reference, reference_log = _build(scheduler, mode)
    for deadline in DEADLINES:
        _drain_by_steps(reference, deadline)
    sim, log = _build(scheduler, mode)
    for deadline in DEADLINES:
        sim.run_until_time(deadline)
    expected = _observe(reference, reference_log)
    assert _observe(sim, log) == expected
    # the scenario has teeth: every fault it sets up actually fired
    assert expected["steps"] > 2_000
    if mode == "telemetry":
        assert expected["latency"]["total"] == expected["summary"]["total_delivered"]
    if mode == "adversary":
        assert all(count > 0 for count in expected["drops"].values())
        assert expected["summary"]["duplicated"] > 0
        assert any(b[0] - a[0] < 0.01 and b[1] == "ping"
                   for a, b in zip(reference_log, reference_log[1:]))


def test_all_cells_of_one_mode_agree_across_schedulers():
    """Scheduler choice is unobservable: the three queues give one log."""
    for mode in ("plain", "adversary"):
        runs = []
        for scheduler in ("wheel", "heap", "subheap"):
            sim, log = _build(scheduler, mode)
            sim.run_until_time(DEADLINES[-1])
            runs.append(_observe(sim, log))
        assert runs[0] == runs[1] == runs[2]
