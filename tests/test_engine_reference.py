"""One reference for the engine's drain loop: ``conftest.reference_step``.

``run_until_time`` walks the wheel's current bucket in place;
``reference_step`` pops and handles a single event, from the test side.  The
contract is that the two are
indistinguishable — same handler log, counters, drop accounting and latency
histogram — with telemetry on or off, and under a link adversary whose
``DelaySpike`` with ``factor < 1`` puts deliveries closer than
``min_delay``, into the bucket being walked, and when nodes send to forged
addresses (unhashable ones are no address at all; the hashable ones take
``pop_record``'s accounting inside the drain loop too).  With telemetry on
under the adversary, its partition heals and its spike ends mid-run and a
callback zeroes its rates, so it goes idle inside a drain: the drain then
skips its hooks, where ``reference_step``'s ``pop_record`` still asks on every
delivery.  In the ``callbacks`` mode a chain of callbacks inside the buckets
adds nodes, schedules crashes and further callbacks and removes and
reinstalls a partitioning adversary; in the ``instant`` mode every send is
due when it is made, so a push ties with the running event's time.

With no second implementation of the random draws to compare against,
``test_one_draw_per_use_and_none_ahead`` pins them to the streams themselves:
the engine draws what ``Random.uniform`` would, one draw per use, none ahead.

The send path has a reference too, kept here since PR 22 deleted it from the
library: ``Network.delivery_times``' arithmetic, replayed on twin RNG streams
against scripted ``_send_fast`` calls under a link adversary; and a batch
of sends is pinned to the same sends made one per call.
"""

from __future__ import annotations

from collections import Counter

import pytest
from conftest import assert_heapq_order, queued_events, records_in_flight, reference_step

from repro.scenarios.adversary import LinkAdversary
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.network import FAST_RECORD_KIND
from repro.sim.node import ProtocolNode
from repro.sim.rng import derive_rng

NODES = 40
DEADLINES = (1.0, 1.0, 4.25, 7.5, 12.0)
#: what node 13 also pings in the ``forged`` modes: three dests that cannot be
#: an address, then hashable ids no facade allocates (``True`` aliases node 1)
FORGED = ([1], {"a": 1}, {0, 2}, 2.5, -3, "x", 10**9, True)
#: callbacks in the ``callbacks`` mode's chain
CHAIN = 40


class _Relay(ProtocolNode):
    """Logs every handled event; pings two peers per timeout and relays
    each ping onward for a few hops, so sends also happen in handlers."""

    __slots__ = ("log", "forged")

    def __init__(self, node_id, log, forged=()):
        super().__init__(node_id)
        self.log = log
        self.forged = forged

    def on_timeout(self):
        self.log.append((self.now, "timeout", self.node_id))
        for step in (1, 7):
            self.send((self.node_id + step) % NODES + 1, "Ping",
                      origin=self.node_id, hops=2)
        for dest in self.forged:
            self.send(dest, "Ping", origin=self.node_id, hops=0)

    def on_Ping(self, origin, hops, topic=None):
        self.log.append((self.now, "ping", self.node_id, origin, hops))
        if hops:
            self.send((self.node_id * 3 + origin) % NODES + 1, "Ping",
                      origin=origin, hops=hops - 1)
        if origin == 9 and hops < 2:
            # zero delay from inside a handler, after its send: lands in the
            # walked bucket, and in the ``instant`` mode ties with that send
            self.sim.inject_message(origin, "Ping", {"origin": 0, "hops": 0},
                                    delay=0.0)


def _drain_by_steps(sim: Simulator, deadline: float) -> None:
    """The reference drain: one ``reference_step`` per due event."""
    while True:
        upcoming = sim.scheduler.next_time()
        if upcoming is None or upcoming > deadline:
            break
        reference_step(sim)
    sim.now = max(sim.now, deadline)


def _build(mode, adversary_class=LinkAdversary):
    # ``instant``: every send is due at its send time, so an injection from
    # a handler ties with the event that made it
    sim = Simulator(SimulatorConfig(seed=77) if mode != "instant" else
                    SimulatorConfig(seed=77, min_delay=1e-300, max_delay=1e-300))
    if mode.startswith("telemetry"):
        sim.network.stats.enable_latency()
    log = []
    for i in range(NODES):
        sim.add_node(_Relay(i + 1, log, FORGED if i + 1 == 13
                            and mode.startswith("forged") else ()))
    sim.crash_node(5, at=4.3)
    sim.call_at(5.1, lambda: sim.inject_message(
        9, "Ping", {"origin": 0, "hops": 1}, delay=0.0))
    if mode.endswith("adversary"):
        def install():
            adversary = adversary_class(sim.adversary_rng(), loss_rate=0.1,
                                        duplicate_rate=0.1)
            # starts with records sent before the install in flight
            adversary.add_partition("cut", [range(1, 11)], start=1.75,
                                    heal_time=6.0)
            # deliveries 10x closer than min_delay: inside the walked bucket
            adversary.add_delay_spike(2.0, 8.0, factor=0.01)
            sim.install_adversary(adversary)
            if mode == "telemetry-adversary":
                # healed and ended by then: nothing left for it to do
                sim.call_at(9.0, lambda: adversary.set_rates(0.0, 0.0))
        sim.call_at(1.5, install)
    if mode == "callbacks":
        # A chain of callbacks 0.01 apart, inside the walked buckets: each
        # adds a node (some first Timeouts land in the bucket), crashes a
        # node 0.01 later and removes or reinstalls an adversary whose
        # partition decides deliveries meanwhile.
        adversary = LinkAdversary(sim.adversary_rng(), loss_rate=0.1,
                                  duplicate_rate=0.1)
        adversary.add_partition("cut", [range(1, 21)], start=1.75, heal_time=6.0)

        def link(k):
            log.append((sim.now, "added", NODES + 1 + k))
            sim.add_node(_Relay(NODES + 1 + k, log))
            sim.crash_node(21 + k % 10, at=sim.now + 0.01)
            sim.install_adversary(adversary if k % 2 else None)
            if k + 1 < CHAIN:
                sim.call_at(sim.now + 0.01, lambda: link(k + 1))
        sim.call_at(1.5, lambda: sim.install_adversary(adversary))
        sim.call_at(2.5, lambda: link(0))
    return sim, log


def _observe(sim, log):
    stats = sim.network.stats
    latency = stats.delivery_latency
    return {
        "log": log,
        "now": sim.now,
        "steps": sim.steps_executed,
        "summary": stats.to_summary_dict(),
        "received": stats.snapshot()._received,  # action -> {node: count}
        "drops": stats.drops_by_reason,
        "latency": None if latency is None else latency.to_dict(),
        "timeouts": sim.timeout_counts,
        # by seq: the wheel sorts a bucket only when it reaches it
        "in_flight": sorted(records_in_flight(sim), key=lambda record: record[1]),
    }


@pytest.mark.parametrize("mode", ["plain", "telemetry", "adversary", "forged",
                                  "forged-adversary", "telemetry-adversary",
                                  "callbacks", "instant"])
def test_run_until_time_reproduces_the_step_drain(mode):
    reference, reference_log = _build(mode)
    for deadline in DEADLINES:
        _drain_by_steps(reference, deadline)
    sim, log = _build(mode)
    for deadline in DEADLINES:
        sim.run_until_time(deadline)
    expected = _observe(reference, reference_log)
    assert _observe(sim, log) == expected
    # the scenario has teeth: every fault it sets up actually fired
    assert expected["steps"] > 2_000
    if mode.startswith("telemetry"):
        assert expected["latency"]["total"] == expected["summary"]["total_delivered"]
    if mode == "telemetry-adversary":
        for adversary in (reference.network.adversary, sim.network.adversary):
            assert adversary.idle and not adversary.partitions and not adversary.spikes
    if mode.endswith("adversary"):
        assert all(count > 0 for count in expected["drops"].values())
        assert expected["summary"]["duplicated"] > 0
        assert any(b[0] - a[0] < 0.01 and b[1] == "ping"
                   for a, b in zip(reference_log, reference_log[1:]))
    if mode.startswith("forged"):
        # the three unaddressable sends of every Timeout were dropped, some
        # when sent (crashed set non-empty, adversary installed), some when due
        assert expected["drops"]["to_crashed"] >= 3 * expected["timeouts"][13]
        assert expected["received"]["Ping"][2.5] > 0
    if mode == "callbacks":
        added = {entry[2]: entry[0] for entry in reference_log if entry[1] == "added"}
        first = {}
        for entry in reference_log:
            if entry[1] == "timeout" and entry[2] in added:
                first.setdefault(entry[2], entry[0])
        assert len(added) == CHAIN and sim.network.adversary is not None
        assert any(first[node] - added[node] < 0.05 for node in first)
        assert all(sim.nodes[node].crashed for node in range(21, 31))
        assert expected["drops"]["partition"] > 0
    if mode == "instant":
        assert sum(a[0] == b[0] for a, b in zip(reference_log, reference_log[1:])) > 1_000


def test_an_exception_leaves_the_rest_of_the_bucket_queued():
    """A callback that raises mid-bucket ends the drain; the events after it
    in the bucket, one it inserted included, stay queued, and the next run
    takes them as the per-event drain does."""
    observed = []
    for drain in (_drain_by_steps, Simulator.run_until_time):
        sim, log = _build("callbacks")

        def boom():
            sim.call_at(sim.now, lambda: log.append((sim.now, "after boom")))
            raise RuntimeError("boom")
        sim.call_at(2.605, boom)
        raised = 0
        for deadline in DEADLINES:
            try:
                drain(sim, deadline)
            except RuntimeError:
                raised += 1
                drain(sim, deadline)
        assert raised == 1
        observed.append(_observe(sim, log))
    assert observed[0] == observed[1]
    assert sum(entry[1] == "after boom" for entry in observed[0]["log"]) == 1


def test_an_adversary_that_never_reports_idle_changes_nothing():
    """The drain and the send path skip an idle adversary's hooks; one that
    never reports idle is asked everything, and the run is the same."""
    asked = Counter()

    class Counted(LinkAdversary):
        def on_submit(self, sender, dest, now):
            asked[type(self).__name__] += 1
            return super().on_submit(sender, dest, now)

    class NeverIdle(Counted):
        def _refresh(self):
            super()._refresh()
            self.idle = False

    observed = []
    for adversary_class in (Counted, NeverIdle):
        sim, log = _build("telemetry-adversary", adversary_class)
        for deadline in DEADLINES:
            sim.run_until_time(deadline)
        observed.append(_observe(sim, log))
        assert sim.network.adversary.idle == (adversary_class is Counted)
    assert observed[0] == observed[1]
    assert 0 < asked["Counted"] < asked["NeverIdle"]


@pytest.mark.parametrize("mode", ["plain", "adversary", "forged-adversary"])
def test_the_drain_takes_the_wheel_in_heapq_order(wheel_stream, mode):
    """Whole buckets, those that took in-bucket pushes included, run the
    wheel's events in ``heapq``'s order."""
    stream, inserted = wheel_stream
    sim, _ = _build(mode)
    for deadline in DEADLINES:
        sim.run_until_time(deadline)
    assert len(stream) == sim.steps_executed > 2_000
    if mode.endswith("adversary"):
        assert inserted
    assert_heapq_order(sim, stream)


def _advanced(seed, stream, draws):
    rng = derive_rng(seed, stream)
    for _ in range(draws):
        rng.random()
    return rng.getstate()


@pytest.mark.parametrize("adversarial", [False, True],
                         ids=["plain", "loss+duplication"])
@pytest.mark.parametrize("workload", ["relay-storm", "facade-churn"])
def test_one_draw_per_use_and_none_ahead(workload, adversarial):
    """The delay stream stands exactly one ``random()`` per accepted copy past
    its seed, the jitter stream one per node added with a Timeout plus one
    per Timeout fired.  A send to a crashed node, or one the adversary
    drops, draws nothing; an injection with an explicit delay neither."""
    def corrupt(sim, adversary_start):
        if adversarial:
            # no partition: every drop it makes is a send-time drop
            sim.call_at(adversary_start, lambda: sim.install_adversary(
                LinkAdversary(sim.adversary_rng(), loss_rate=0.1,
                              duplicate_rate=0.1)))
        sim.inject_message(3, "Ping", {"origin": 0, "hops": 1})
        sim.inject_message(4, "Ping", {"origin": 0, "hops": 1}, delay=0.5)
        return 1  # injections that drew their delay

    if workload == "relay-storm":
        sim, _ = _build("plain")
        injected = corrupt(sim, 1.5)
        silent = sim.add_node(_Relay(NODES + 1, []), schedule_timeout=False)
        sim.run_until_time(DEADLINES[-1])
        assert silent.timeout_count == 0
        with_timeout = len(sim.nodes) - 1
    else:
        from repro.api import SystemSpec, build_stable

        system, peers = build_stable(SystemSpec(seed=77), 16)
        sim = system.sim
        injected = corrupt(sim, sim.now + 1.5)
        system.crash(peers[3])
        system.unsubscribe(peers[7])
        system.add_subscriber()
        system.run_rounds(30)
        with_timeout = len(sim.nodes)
    stats = sim.network.stats
    assert stats.drops_by_reason["to_crashed"] > 0
    assert adversarial == (stats.duplicated > 0
                           and stats.drops_by_reason["adversary_loss"] > 0)
    copies = stats.total_sent - stats.total_dropped + stats.duplicated + injected
    assert sim._delay_rng.getstate() == _advanced(77, "delay", copies)
    fired = sum(sim.timeout_counts.values())
    assert sim._jitter_rng.getstate() == _advanced(77, "jitter",
                                                   with_timeout + fired)


# --------------------------------------------------------------------- sends
# ``Network.delivery_times`` (deleted in PR 22) is the oracle for a send under
# a link adversary: its arithmetic, replayed here on twin RNG streams.
SEND_SEED = 22
SEND_CRASHED = 7
SEND_LOSS, SEND_DUPLICATION = 0.2, 0.25
SEND_CUT = {"group": {1, 2, 3}, "start": 0.5, "heal": 2.0}
SEND_SPIKE = {"start": 1.0, "end": 2.5, "factor": 0.25}
SEND_SENDERS = (1, 4, True, "s", 2, 10**9)
SEND_DESTS = (2, 5, SEND_CRASHED, [1], 3, {}, "x", 4)


def _send_script():
    """``(now, sender, dest)`` triples covering every sender x dest pair in
    every combination of the partition and spike windows."""
    senders, dests = len(SEND_SENDERS), len(SEND_DESTS)
    return [(0.005 * i, SEND_SENDERS[i % senders],
             SEND_DESTS[(i // senders) % dests]) for i in range(600)]


def _replay_delivery_times(script, min_delay, max_delay):
    """What the deleted reference did with each send: count it, drop it if the
    address is gone, ask the adversary (partition, spike, loss coin, then
    duplicate coin), draw one ``uniform`` delay per accepted copy."""
    delay = derive_rng(SEND_SEED, "delay")
    coins = derive_rng(SEND_SEED, "adversary")
    sent, drops, duplicated, times = Counter(), Counter(), 0, []
    group = SEND_CUT["group"]
    for now, sender, dest in script:
        sent[sender] += 1
        try:
            gone = dest in {SEND_CRASHED}
        except TypeError:
            gone = True
        if gone:
            drops["to_crashed"] += 1
            continue
        if (SEND_CUT["start"] <= now < SEND_CUT["heal"]
                and (dest in group) != (sender in group)):
            drops["partition"] += 1
            continue
        factor = 1.0
        if SEND_SPIKE["start"] <= now < SEND_SPIKE["end"]:
            factor *= SEND_SPIKE["factor"]
        if coins.random() < SEND_LOSS:
            drops["adversary_loss"] += 1
            continue
        copies = 2 if coins.random() < SEND_DUPLICATION else 1
        duplicated += copies - 1
        times.extend((now + delay.uniform(min_delay, max_delay) * factor, now,
                      sender, dest) for _ in range(copies))
    return sent, drops, duplicated, times, delay.getstate(), coins.getstate()


def test_send_fast_reproduces_the_delivery_times_arithmetic():
    shown = []

    class Recording(LinkAdversary):
        def on_submit(self, sender, dest, now):
            shown.append(dest)
            return super().on_submit(sender, dest, now)

    sim = Simulator(SimulatorConfig(seed=SEND_SEED))
    sim.network.mark_crashed(SEND_CRASHED)
    adversary = Recording(sim.adversary_rng(), loss_rate=SEND_LOSS,
                          duplicate_rate=SEND_DUPLICATION)
    adversary.add_partition("cut", [SEND_CUT["group"]], start=SEND_CUT["start"],
                            heal_time=SEND_CUT["heal"])
    adversary.add_delay_spike(**SEND_SPIKE)
    sim.install_adversary(adversary)
    script = _send_script()
    params = {"origin": 0, "hops": 0}
    for now, sender, dest in script:
        sim.now = now
        sim._send_fast(sender, None, ((dest, "Ping", params),))

    sent, drops, duplicated, times, delay_state, coin_state = \
        _replay_delivery_times(script, sim.config.min_delay, sim.config.max_delay)
    assert all(count > 0 for count in drops.values()) and duplicated > 0
    assert any(t - now < sim.config.min_delay for t, now, _, _ in times)
    stats = sim.network.stats
    assert stats.total_sent == len(script)
    assert stats.snapshot()._sent == {"Ping": dict(sent)}  # action -> {node: count}
    assert stats.drops_by_reason == dict(drops)
    assert stats.duplicated == duplicated
    pushed = sorted(queued_events(sim.scheduler), key=lambda event: event[1])
    # (deliver_time, send_time, sender, dest) per copy in push order; the
    # deliver times compare with == on floats
    assert [(e[0], e[8], e[7], e[3]) for e in pushed] == times
    assert all(e[2] == FAST_RECORD_KIND and e[4] == "Ping" and e[5] is params
               and e[6] is None for e in pushed)
    assert len(queued_events(sim.scheduler)) == len(times)
    assert sim._delay_rng.getstate() == delay_state
    assert sim.adversary_rng().getstate() == coin_state
    # an unaddressable dest is dropped before the adversary sees it
    assert [1] not in shown and {} not in shown
    assert len(shown) == len(script) - drops["to_crashed"]


def _batch_world(seed):
    """A simulator mid-bucket under a lossy, duplicating adversary whose delay
    spike (factor < 1) puts copies into the bucket being drained; node 7
    crashed."""
    sim = Simulator(SimulatorConfig(seed=seed))
    sim.network.mark_crashed(7)
    adversary = LinkAdversary(sim.adversary_rng(), loss_rate=0.3, duplicate_rate=0.3)
    adversary.add_delay_spike(start=0.0, end=10.0, factor=0.25)
    sim.install_adversary(adversary)
    sim.now = 1.0
    # one event due now, its bucket made current: [1.0, 1.0 + bucket width)
    sim.inject_message(2, "Ping", {}, delay=0.0)
    assert sim.scheduler.next_time() == 1.0
    return sim


def _batch_outcome(sim):
    stats = sim.network.stats
    scheduler = sim.scheduler
    return (sorted(queued_events(scheduler), key=lambda event: event[1]),
            stats.drops_by_reason, stats.duplicated, stats.total_sent,
            stats.snapshot()._sent, len(queued_events(scheduler)), list(scheduler._current),
            sim._delay_rng.getstate(), sim.adversary_rng().getstate())


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_a_batch_is_its_sends_made_one_per_call(seed):
    """Per copy, in batch order: the same records, drops by reason,
    duplicates, counts, in-bucket insertions and random streams."""
    # a live dest, a crashed one, an unhashable one, ``None`` (an address
    # like any hashable non-node ref: callers drop unset references), then
    # enough live sends for the loss and duplicate coins to come up
    sends = [(dest, action, {"i": i}) for i, (dest, action) in enumerate(
        [(2, "Ping"), (7, "Ping"), ([1], "Pong"), (None, "Ping"), (3, "Pong")]
        + [(4 + i % 3, ("Ping", "Pong")[i % 2]) for i in range(24)])]
    batched, single = _batch_world(seed), _batch_world(seed)
    batched._send_fast(5, "t", sends)
    for send in sends:
        single._send_fast(5, "t", (send,))
    outcome = _batch_outcome(batched)
    assert outcome == _batch_outcome(single)
    records, drops, duplicated, total_sent, sent, pending, current = outcome[:7]
    assert drops["to_crashed"] == 2 and drops["adversary_loss"] > 0 and duplicated > 0
    assert total_sent == len(sends) and set(sent) == {"Ping", "Pong"}
    # the injected event and at least one copy landed in the current bucket,
    # the rest in future buckets
    scheduler = batched.scheduler
    assert current == sorted(current) and 2 <= len(current) < pending == len(records)
    assert all(int(record[0] * scheduler._inv_width) == scheduler._current_index
               for record in current)
    assert all(record[6] == "t" and record[7] == 5 and record[8] == 1.0
               for record in records if record[7] is not None)
