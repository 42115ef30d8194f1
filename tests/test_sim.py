"""Unit tests for the simulation substrate (engine, network, tracing, failures)."""

import math

import pytest
from conftest import queued_events, records_in_flight, reference_step

from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.failure import FailureDetector
from repro.sim.network import FAST_RECORD_KIND, REC_PARAMS, REC_SENDER, ChannelStats
from repro.sim.node import ProtocolNode
from repro.sim.rng import derive_rng
from repro.sim.tracing import Tracer


class EchoNode(ProtocolNode):
    """Test node: counts pings and echoes them back once."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.pings = 0
        self.timeouts = 0

    def on_timeout(self):
        self.timeouts += 1

    def on_Ping(self, sender, reply=True, topic=None):
        self.pings += 1
        if reply:
            self.send(sender, "Ping", reply=False, sender=self.node_id)


class TestRng:
    def test_derive_rng_is_deterministic(self):
        assert derive_rng(1, "a").random() == derive_rng(1, "a").random()
        assert derive_rng(1, "a").random() != derive_rng(1, "b").random()


class TestSimulatorBasics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(timeout_period=0)
        with pytest.raises(ValueError):
            SimulatorConfig(timeout_jitter=1.5)
        # NaN passed every comparison: a NaN lag left the detector never
        # suspecting anyone, a NaN/inf delay or period broke the wheel later
        for field in ("min_delay", "max_delay", "timeout_period", "detection_lag"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    SimulatorConfig(**{field: value})

    def test_config_validates_delays_and_lag(self):
        with pytest.raises(ValueError, match="min_delay"):
            SimulatorConfig(min_delay=-0.1)
        # zero used to validate here and die later in Network.__init__ with
        # other words; the paper's delays are strictly positive
        with pytest.raises(ValueError, match="min_delay must be positive"):
            SimulatorConfig(min_delay=0.0)
        with pytest.raises(ValueError, match="max_delay"):
            SimulatorConfig(min_delay=0.5, max_delay=0.1)
        with pytest.raises(ValueError, match="detection_lag"):
            SimulatorConfig(detection_lag=-1.0)

    def test_duplicate_node_ids_rejected(self):
        sim = Simulator()
        sim.add_node(EchoNode(1))
        with pytest.raises(ValueError):
            sim.add_node(EchoNode(1))

    def test_timeouts_fire_repeatedly(self):
        sim = Simulator(SimulatorConfig(seed=1))
        node = sim.add_node(EchoNode(1))
        sim.run_rounds(10)
        assert node.timeouts >= 8
        assert sim.completed_timeout_intervals() == node.timeouts

    def test_message_delivery_and_reply(self):
        sim = Simulator(SimulatorConfig(seed=2))
        a = sim.add_node(EchoNode(1), schedule_timeout=False)
        b = sim.add_node(EchoNode(2), schedule_timeout=False)
        a.send(2, "Ping", sender=1)
        sim.run_rounds(5)
        assert b.pings == 1
        assert a.pings == 1  # echoed back
        assert sim.network.stats.total_delivered == 2

    def test_unknown_action_is_ignored(self):
        sim = Simulator(SimulatorConfig(seed=3))
        sim.add_node(EchoNode(1), schedule_timeout=False)
        sim.inject_message(1, "Nonsense", {"x": 1})
        sim.run_rounds(2)  # must not raise

    def test_a_message_with_an_unnamed_parameter_is_refused_up_front(self):
        """A non-str params key used to reach ``handler(node, **params)`` and
        end the drain with ``keywords must be strings``."""
        sim = Simulator(SimulatorConfig(seed=3))
        node = sim.add_node(EchoNode(1), schedule_timeout=False)
        with pytest.raises(TypeError, match="every key a str"):
            sim.inject_message(1, "Ping", {1: 2, "sender": 1}, delay=0.5)
        sim.run_rounds(3)
        assert node.pings == 0 and sim.steps_executed == 0

    def test_send_to_none_is_noop(self):
        sim = Simulator()
        node = sim.add_node(EchoNode(1), schedule_timeout=False)
        node.send(None, "Ping", sender=1)
        assert sim.network.stats.total_sent == 0

    def test_crash_stops_processing_and_drops_messages(self):
        sim = Simulator(SimulatorConfig(seed=4))
        a = sim.add_node(EchoNode(1), schedule_timeout=False)
        b = sim.add_node(EchoNode(2))
        sim.crash_node(2)
        a.send(2, "Ping", sender=1)
        sim.run_rounds(5)
        assert b.pings == 0 and b.timeouts == 0
        assert sim.network.stats.drops_by_reason["to_crashed"] == 1

    def test_scheduled_crash(self):
        sim = Simulator(SimulatorConfig(seed=5))
        node = sim.add_node(EchoNode(1))
        sim.crash_node(1, at=3.0)
        sim.run_rounds(10)
        assert node.crashed
        assert node.timeouts <= 4

    def test_run_until_predicate(self):
        sim = Simulator(SimulatorConfig(seed=6))
        node = sim.add_node(EchoNode(1))
        reached = sim.run_until(lambda: node.timeouts >= 5, check_every=1.0, max_time=50)
        assert reached

    def test_run_until_gives_up(self):
        sim = Simulator(SimulatorConfig(seed=7))
        sim.add_node(EchoNode(1))
        assert not sim.run_until(lambda: False, check_every=1.0, max_time=5)

    def test_call_at(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, lambda: fired.append(sim.now))
        sim.run_rounds(5)
        assert fired and fired[0] >= 2.0

    def test_a_run_from_inside_an_event_is_refused(self):
        """An event runs inside the walked bucket: a drain it started would
        walk that bucket a second time."""
        sim = Simulator(SimulatorConfig(seed=1))
        node = sim.add_node(EchoNode(1))
        sim.call_at(2.0, lambda: sim.run_for(1.0))
        with pytest.raises(RuntimeError, match="from inside an event"):
            sim.run_rounds(5)
        assert sim.now == 2.0
        sim.run_rounds(5)
        assert node.timeouts >= 5 and sim.now == 7.0

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call, name", [
        (lambda sim, t: sim.call_at(t, lambda: None), "call_at time"),
        (lambda sim, t: sim.crash_node(1, at=t), "crash_node at"),
        (lambda sim, t: sim.inject_message(1, "Ping", {}, delay=t), "inject_message delay"),
        (lambda sim, t: sim.run_until_time(t), "run_until_time deadline"),
        (lambda sim, t: sim.run_for(t), "run_until_time deadline"),
        (lambda sim, t: sim.run_rounds(t), "run_until_time deadline"),
    ], ids=["call_at", "crash_node", "inject_message", "run_until_time",
            "run_for", "run_rounds"])
    def test_non_finite_event_times_are_rejected(self, call, name, value):
        """The wheel died in its bucket arithmetic on a non-finite event
        time, and a non-finite deadline drained the periodic Timeouts
        forever: all are refused up front."""
        sim = Simulator(SimulatorConfig(seed=1))
        sim.add_node(EchoNode(1))
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            call(sim, value)
        assert sim.now == 0.0 and sim.steps_executed == 0
        sim.run_rounds(3)
        assert not sim.nodes[1].crashed and sim.nodes[1].pings == 0

    def test_determinism_across_runs(self):
        def run(seed):
            sim = Simulator(SimulatorConfig(seed=seed))
            nodes = [sim.add_node(EchoNode(i + 1)) for i in range(4)]
            nodes[0].send(2, "Ping", sender=1)
            sim.run_rounds(10)
            return [n.timeouts for n in nodes], sim.network.stats.total_delivered

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestNetwork:
    def test_a_send_is_one_record_in_the_channel(self):
        sim = Simulator(SimulatorConfig(seed=8))
        sim.add_node(EchoNode(1), schedule_timeout=False)
        sim.add_node(EchoNode(2), schedule_timeout=False)
        sim.nodes[1].send(2, "Ping", sender=1, node=7)
        (record,) = records_in_flight(sim)
        assert records_in_flight(sim, dest=2, action="Ping") == [record]
        assert record[REC_SENDER] == 1 and record[REC_PARAMS] == {"sender": 1, "node": 7}

    def test_stats_snapshot_and_delta(self):
        sim = Simulator(SimulatorConfig(seed=8))
        sim.add_node(EchoNode(1), schedule_timeout=False)
        sim.add_node(EchoNode(2), schedule_timeout=False)
        stats = sim.network.stats
        assert isinstance(stats, ChannelStats)
        sim.nodes[1].send(2, "Ping", reply=False, sender=1)
        sim.nodes[1].send(2, "Hello")  # no handler: counted, then ignored
        sim.run_for(2.0)  # sent and delivered
        snap = stats.snapshot()
        sim.nodes[1].send(2, "Ping", reply=False, sender=1)  # sent, in flight
        delta = stats.delta(snap)
        assert delta.total_sent == 1 and delta.total_delivered == 0
        assert delta.sent_by(1, "Ping") == 1 and delta.received_by(2) == 0
        assert stats.sent_by(1, "Ping") == 2
        assert stats.received_by(2) == 2
        # an action with no traffic in the window is absent, not zero (a zero
        # entry would change every summary and so the bench's sim_digest)
        assert delta.sent_by_action == {"Ping": 1}
        assert delta.received_by_action == {}
        assert delta.to_summary_dict() == {
            "total_sent": 1, "total_delivered": 0, "total_dropped": 0,
            "duplicated": 0, "drops_by_reason": {}, "sent_by_action": {"Ping": 1},
            "received_by_action": {}}
        # the snapshot copied every per-action dict: later traffic leaves it be
        sim.nodes[2].send(1, "Hello")
        sim.run_for(2.0)
        assert stats.sent_by(1, "Ping") == 2 and stats.received_by(2) == 3
        assert (snap.sent_by(1), snap.sent_by(1, "Ping"), snap.sent_by(2)) == (2, 1, 0)
        assert (snap.received_by(2), snap.received_by(2, "Ping"), snap.received_by(1)) == (2, 1, 0)
        assert snap.to_summary_dict()["sent_by_action"] == {"Hello": 1, "Ping": 1}


class TestTracerAndFailureDetector:
    def test_tracer_counters_series_events(self):
        tracer = Tracer()
        tracer.record(1.0, "x", node=3, foo="bar")
        tracer.counters["x"] += 2  # what the per-message paths do with the log off
        assert tracer.counters["x"] == 3
        (event,) = tracer.events
        assert (event.time, event.kind, event.node, event.data) == (1.0, "x", 3, {"foo": "bar"})

    def test_tracer_keep_events_false_counts_without_storing(self):
        tracer = Tracer(keep_events=False)
        for i in range(5):
            tracer.record(float(i), "k", node=i)
        assert tracer.events == []
        assert tracer.counters["k"] == 5

    def test_tracer_keeps_every_event_in_order(self):
        """The log has no cap: every recorded event is kept, in record order,
        and the counters agree with it."""
        tracer = Tracer()
        for i in range(10):
            tracer.record(float(i), "k" if i % 3 else "j", node=i)
        assert [e.node for e in tracer.events] == list(range(10))
        assert [e.time for e in tracer.events] == [float(i) for i in range(10)]
        assert tracer.counters == {"j": 4, "k": 6}

    def test_trace_log_matches_counters_on_a_run(self):
        """With ``keep_trace_events`` on, every counted event of a scenario
        run is also in the log, in time order."""
        from collections import Counter

        from repro.api.builder import build_system
        from repro.api.spec import SystemSpec
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import ScenarioRunner

        system = build_system(SystemSpec(
            seed=3, sim=SimulatorConfig(seed=3, keep_trace_events=True)))
        ScenarioRunner(get_scenario("lossy-network"), seed=0, system=system).run()
        tracer = system.sim.tracer
        assert tracer.counters["publish"] > 0 and tracer.counters["flood_delivery"] > 0
        assert Counter(event.kind for event in tracer.events) == tracer.counters
        times = [event.time for event in tracer.events]
        assert times == sorted(times)

    def test_failure_detector_lag(self):
        detector = FailureDetector(detection_lag=5.0)
        detector.notify_crash(1, time=10.0)
        assert not detector.suspects(1, now=12.0)
        assert detector.suspects(1, now=15.0)
        assert [n for n in (1, 2) if detector.suspects(n, now=20.0)] == [1]

    def test_failure_detector_validation(self):
        with pytest.raises(ValueError):
            FailureDetector(detection_lag=-1)

    def test_detached_detector_requires_explicit_now(self):
        """A detector without a simulator has no clock: suspects() must raise
        rather than silently claim the crash is already detected."""
        detector = FailureDetector(detection_lag=5.0)
        detector.notify_crash(1, time=10.0)
        with pytest.raises(RuntimeError, match="now"):
            detector.suspects(1)
        # Unknown nodes never raise: there is nothing to time-compare.
        assert not detector.suspects(2)
        # Attached detectors keep using the simulator clock.
        sim = Simulator(SimulatorConfig(seed=1, detection_lag=2.0))
        sim.add_node(EchoNode(7), schedule_timeout=False)
        sim.crash_node(7)
        assert not sim.failure_detector.suspects(7)  # lag not yet elapsed
        sim.run_for(3.0)
        assert sim.failure_detector.suspects(7)


class TestDropAccounting:
    def test_drop_reasons_flow_through_snapshot_and_delta(self):
        stats = ChannelStats()
        stats.record_drop()  # defaults to the crashed-destination reason
        stats.record_drop("adversary_loss")
        stats.duplicated += 2  # what the send path does for two extra copies
        snap = stats.snapshot()
        stats.record_drop("adversary_loss")
        stats.record_drop("partition")
        delta = stats.delta(snap)
        assert stats.drops_by_reason["to_crashed"] == 1
        assert stats.total_dropped == 4
        assert stats.drops_by_reason == {
            "to_crashed": 1, "adversary_loss": 2, "partition": 1}
        assert snap.drops_by_reason["adversary_loss"] == 1
        assert delta.drops_by_reason == {
            "to_crashed": 0, "adversary_loss": 1, "partition": 1}
        assert delta.duplicated == 0 and snap.duplicated == 2

    def test_unknown_drop_reason_rejected(self):
        with pytest.raises(ValueError, match="drop reason"):
            ChannelStats().record_drop("gremlins")


class _Stray(ProtocolNode):
    """Per Timeout, one Ping to a live peer and one to ``stray``."""

    def __init__(self, node_id, stray):
        super().__init__(node_id)
        self.stray = stray
        self.pings = 0

    def on_timeout(self):
        self.send(self.node_id % 4 + 1, "Ping")
        self.send(self.stray, "Ping")

    def on_Ping(self, topic=None):
        self.pings += 1


def _install_lossy_partitioned(sim, group):
    from repro.scenarios.adversary import LinkAdversary

    adversary = LinkAdversary(sim.adversary_rng(), loss_rate=0.1,
                              duplicate_rate=0.1)
    # an active partition makes the adversary look every address up
    adversary.add_partition("cut", [group], start=sim.now + 2.0,
                            heal_time=sim.now + 6.0)
    sim.install_adversary(adversary)


@pytest.mark.parametrize("mode", ["plain", "crashed", "adversary"])
@pytest.mark.parametrize("stray", [[1], {"a": 1}, {"0", 2}], ids=["list", "dict", "set"])
class TestUnaddressableDestination:
    """A ``dest`` that cannot be an address (unhashable: a forged ref) is a
    send to an address that does not exist — it must never end the run (a
    set did: ``{"0", 2} in set()`` does not raise)."""

    @pytest.mark.parametrize("driver", ["run_rounds", "step"])
    def test_bare_engine_send_is_dropped_once(self, stray, mode, driver):
        sim = Simulator(SimulatorConfig(seed=21))
        nodes = [sim.add_node(_Stray(i + 1, stray)) for i in range(4)]
        if mode == "crashed":
            sim.crash_node(4)  # a non-empty crashed set: looked up at send time
        if mode == "adversary":
            _install_lossy_partitioned(sim, [1, 2])
        if driver == "run_rounds":
            sim.run_rounds(10)
        else:
            while sim.scheduler.next_time() <= 10.0:
                reference_step(sim)
        live = [node for node in nodes if not node.crashed]
        assert all(node.timeout_count >= 8 for node in live)
        assert sum(node.pings for node in live) >= 15
        # the records still queued to the stray are not in flight ...
        network = sim.network
        assert records_in_flight(sim, dest=stray) == []
        # ... and every stray send is accounted exactly once: dropped as
        # to_crashed, or still waiting to come due
        strays = sum(node.timeout_count for node in nodes)
        pending = sum(1 for event in queued_events(sim.scheduler)
                      if event[2] == FAST_RECORD_KIND and event[3] is stray)
        to_dead_peer = nodes[2].timeout_count if mode == "crashed" else 0
        assert network.stats.drops_by_reason["to_crashed"] == strays - pending + to_dead_peer
        received = network.stats.snapshot()._received  # action -> {node: count}
        assert {node for by_node in received.values() for node in by_node} <= {1, 2, 3, 4}

    def test_ring_outlives_a_forged_neighbour_ref(self, stray, mode):
        """A forged ``Linearize`` names the ref as every subscriber's closest
        neighbour.  A ref that is not an ``int`` is dropped where it enters
        a view, so nothing is ever sent *to* it — and the run goes on."""
        from repro.api import SystemSpec, build_stable

        system, peers = build_stable(SystemSpec(seed=3), 8)
        sim = system.sim
        if mode == "crashed":
            sim.crash_node(peers[-1].node_id)
        if mode == "adversary":
            _install_lossy_partitioned(sim, [p.node_id for p in peers[:2]])
        for peer in peers:
            sim.inject_message(peer.node_id, "Linearize", {
                "node": stray, "label": peer.view().label + "1"})
        before = sim.timeout_counts
        system.run_rounds(10)
        fired = {node_id: count - before[node_id]
                 for node_id, count in sim.timeout_counts.items()}
        assert all(count >= 8 for node_id, count in fired.items()
                   if not sim.nodes[node_id].crashed)
        # only the crashed peer is ever a destination that is not there
        assert (sim.network.stats.drops_by_reason["to_crashed"] > 0) == (mode == "crashed")
        records_in_flight(sim)  # a forged ref in the backlog is no address
