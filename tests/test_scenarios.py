"""Tests for the scenario subsystem: link adversary, specs, runner, CLI."""

import json
import random

import pytest
from conftest import assert_heapq_order, records_in_flight

from repro.api import SystemSpec, build_stable
from repro.core.facade import SupervisedPubSub
from repro.scenarios.adversary import DelaySpike, LinkAdversary, Partition
from repro.scenarios.cli import main as cli_main
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.network import (
    DROP_ADVERSARY_LOSS,
    DROP_PARTITION,
    DROP_TO_CRASHED,
    FAST_RECORD_KIND,
    REC_DELIVER_TIME,
    REC_DEST,
    REC_KIND,
    REC_PARAMS,
    REC_SEND_TIME,
)
from repro.sim.node import ProtocolNode


class Counting(ProtocolNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.pings = 0

    def on_Ping(self, sender=None, topic=None):
        self.pings += 1


class TestPartitionAndSpike:
    def test_partition_windows_and_sides(self):
        cut = Partition("p", [{1, 2}], start=5.0, heal_time=10.0)
        assert not cut.active(4.9)
        assert cut.active(5.0) and cut.active(9.9)
        assert not cut.active(10.0)  # healed on schedule, no bookkeeping call
        assert cut.severs(1, 3, 7.0) and cut.severs(3, 2, 7.0)
        assert not cut.severs(1, 2, 7.0)  # same isolated group
        assert not cut.severs(3, 4, 7.0)  # both in the rest group
        assert not cut.severs(1, 3, 12.0)  # after heal
        # Adversarially injected messages count as the rest group.
        assert cut.severs(None, 1, 7.0)
        assert not cut.severs(None, 3, 7.0)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition("p", [{1}, {1, 2}])
        with pytest.raises(ValueError):
            Partition("p", [{1}], start=5.0, heal_time=4.0)
        with pytest.raises(ValueError):
            DelaySpike(start=2.0, end=1.0, factor=2.0)
        with pytest.raises(ValueError):
            DelaySpike(start=0.0, end=1.0, factor=0.0)

    def test_adversary_rate_validation_and_duplicate_names(self):
        adversary = LinkAdversary(random.Random(0))
        with pytest.raises(ValueError):
            adversary.set_rates(loss_rate=1.0)
        with pytest.raises(ValueError):
            adversary.set_rates(duplicate_rate=-0.1)
        adversary.add_partition("cut", [{1}])
        with pytest.raises(ValueError):
            adversary.add_partition("cut", [{2}])


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInputsAreRejected:
    """Thm 8 harness: a NaN or infinite time, round count or factor is refused
    where it is stated.  Accepted, a NaN or infinite spike factor killed the
    next ``run_for`` inside the wheel, and a NaN heal time left the cut never
    active.  ``heal_time=None`` stays the way to say "never heals"."""

    @pytest.mark.parametrize("start, end, factor", [
        (NAN, 5.0, 2.0), (0.0, NAN, 2.0), (0.0, 5.0, NAN), (0.0, 5.0, INF)],
        ids=["start-nan", "end-nan", "factor-nan", "factor-inf"])
    def test_delay_spike(self, start, end, factor):
        adversary = LinkAdversary(random.Random(0))
        with pytest.raises(ValueError):
            adversary.add_delay_spike(start, end, factor)
        assert adversary.spikes == []

    @pytest.mark.parametrize("start, heal_time", [(0.0, NAN), (NAN, None), (NAN, 5.0)],
                             ids=["heal-nan", "start-nan-never-heals", "start-nan"])
    def test_partition(self, start, heal_time):
        adversary = LinkAdversary(random.Random(0))
        with pytest.raises(ValueError):
            adversary.add_partition("cut", [{1}], start=start, heal_time=heal_time)
        assert adversary.partitions == {}

    @pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["rounds", "settle_rounds", "delay_spike_factor"])
    def test_phase_spec(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .* finite"):
            PhaseSpec(name="p", **{field: value})

    @pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
    def test_partition_spec(self, value):
        with pytest.raises(ValueError, match="heal_after_rounds must be .* finite"):
            PartitionSpec(heal_after_rounds=value)

    def test_a_scenario_json_text_carrying_nan(self):
        payload = json.loads(get_scenario("rolling-partition").to_json())
        payload["phases"][1]["partition"]["heal_after_rounds"] = NAN
        text = json.dumps(payload)
        assert "NaN" in text
        with pytest.raises(ValueError, match="heal_after_rounds"):
            ScenarioSpec.from_json(text)


class TestAdversaryHooks:
    def test_loss_and_duplication_are_accounted(self):
        sim = Simulator(SimulatorConfig(seed=3))
        a = sim.add_node(Counting(1), schedule_timeout=False)
        sim.add_node(Counting(2), schedule_timeout=False)
        adversary = LinkAdversary(sim.adversary_rng(), loss_rate=0.3,
                                  duplicate_rate=0.3)
        sim.install_adversary(adversary)
        for _ in range(200):
            a.send(2, "Ping", sender=1)
        sim.run_for(50.0)
        stats = sim.network.stats
        delivered = sim.nodes[2].pings
        assert stats.drops_by_reason[DROP_ADVERSARY_LOSS] > 0
        assert stats.duplicated > 0
        assert delivered == stats.total_delivered
        assert delivered == 200 - stats.total_dropped + stats.duplicated
        assert stats.drops_by_reason[DROP_TO_CRASHED] == 0

    def test_partition_drops_at_send_and_delivery_time(self):
        sim = Simulator(SimulatorConfig(seed=4))
        a = sim.add_node(Counting(1), schedule_timeout=False)
        sim.add_node(Counting(2), schedule_timeout=False)
        adversary = LinkAdversary(sim.adversary_rng())
        sim.install_adversary(adversary)
        # Partition starts at t=0.05: the first message is submitted before it
        # but delivered during it (delays are >= 0.1), so the delivery-time
        # hook must sever it too.
        adversary.add_partition("cut", [{1}], start=0.05, heal_time=100.0)
        a.send(2, "Ping", sender=1)
        sim.run_for(1.0)
        assert sim.nodes[2].pings == 0
        assert sim.network.stats.drops_by_reason[DROP_PARTITION] == 1
        # While active, sends across the cut are dropped at submit time.
        sim.run_until_time(10.0)
        a.send(2, "Ping", sender=1)
        sim.run_for(5.0)
        assert sim.nodes[2].pings == 0
        assert sim.network.stats.drops_by_reason[DROP_PARTITION] == 2
        # After the heal everything flows again.
        sim.run_until_time(101.0)
        a.send(2, "Ping", sender=1)
        sim.run_for(5.0)
        assert sim.nodes[2].pings == 1

    def test_delay_spike_stretches_delays_without_loss(self):
        def deliver_time(factor):
            sim = Simulator(SimulatorConfig(seed=5))
            a = sim.add_node(Counting(1), schedule_timeout=False)
            sim.add_node(Counting(2), schedule_timeout=False)
            adversary = LinkAdversary(sim.adversary_rng())
            if factor != 1.0:
                adversary.add_delay_spike(0.0, 100.0, factor)
            sim.install_adversary(adversary)
            a.send(2, "Ping", sender=1)
            sim.run_for(100.0)
            assert sim.nodes[2].pings == 1
            return sim.network.stats.total_delivered

        assert deliver_time(1.0) == deliver_time(10.0) == 1

    def test_system_reconverges_under_transient_loss(self):
        """Self-stabilization survives a lossy spell: the paper's channel
        never loses messages, the protocol still recovers when ours does."""
        system, _ = build_stable(SystemSpec(seed=9), 8)
        adversary = LinkAdversary(system.sim.adversary_rng(), loss_rate=0.2)
        system.sim.install_adversary(adversary)
        system.run_rounds(20)
        adversary.quiesce()
        assert system.run_until_legitimate(max_rounds=400)


class TestOneInFlightForm:
    """Everything in flight — sent with or without an adversary, duplicated,
    injected — is one record in the scheduler, and ``Network.in_flight``
    counts those records."""

    def test_views_agree_under_every_adversarial_condition(self):
        sim = Simulator(SimulatorConfig(seed=21))
        nodes = [sim.add_node(Counting(i + 1), schedule_timeout=False)
                 for i in range(6)]
        adversary = LinkAdversary(sim.adversary_rng(), loss_rate=0.2,
                                  duplicate_rate=0.3)
        adversary.add_delay_spike(0.0, 50.0, factor=0.5)
        # starts with every copy below already in flight
        adversary.add_partition("cut", [{1, 2}], start=0.02, heal_time=50.0)
        sim.install_adversary(adversary)
        for node in nodes:
            for dest in range(1, 7):
                if dest != node.node_id:
                    node.send(dest, "Ping", sender=node.node_id)
        sim.inject_message(3, "Ping", {"sender": 99})
        network, stats = sim.network, sim.network.stats
        assert stats.drops_by_reason[DROP_ADVERSARY_LOSS] > 0
        assert stats.duplicated > 0
        assert stats.total_sent == 30  # the injection is not a protocol send

        in_flight = records_in_flight(sim)
        assert (network.in_flight() == len(in_flight)
                == 30 - stats.total_dropped + stats.duplicated + 1)
        # the scheduler backlog is the only store: one record per entry
        assert in_flight == [event for event in sim.scheduler.iter_events()
                             if event[REC_KIND] == FAST_RECORD_KIND]
        # the spike undercut min_delay for at least one copy
        assert any(record[REC_DELIVER_TIME] - record[REC_SEND_TIME] < sim.config.min_delay
                   for record in in_flight)
        # a duplicate is a second entry sharing the first one's params dict
        sharers = {}
        for record in in_flight:
            sharers.setdefault(id(record[REC_PARAMS]), []).append(record)
        pairs = [group for group in sharers.values() if len(group) == 2]
        assert len(pairs) == stats.duplicated
        assert len(sharers) == len(in_flight) - stats.duplicated
        assert all(a[REC_DELIVER_TIME] != b[REC_DELIVER_TIME] for a, b in pairs)
        # injected corruption has no sender
        (injected,) = records_in_flight(sim, sender=None)
        assert injected[REC_DEST] == 3 and injected[REC_PARAMS] == {"sender": 99}

        # copies addressed to a node that then crashes are no longer in
        # flight at once and are nobody's "drop"
        to_four = len(records_in_flight(sim, dest=4))
        assert to_four > 0
        drops_before = stats.drops_by_reason
        sim.crash_node(4)
        assert records_in_flight(sim, dest=4) == []
        assert network.in_flight() == len(in_flight) - to_four
        assert stats.drops_by_reason == drops_before

        sim.run_for(2.0)
        assert network.in_flight() == 0
        # all of them were sent before the cut: severed at delivery time
        severed = stats.drops_by_reason[DROP_PARTITION]
        assert severed > 0
        assert stats.drops_by_reason[DROP_TO_CRASHED] == 0
        assert (sum(node.pings for node in nodes) == stats.total_delivered
                == len(in_flight) - to_four - severed)


class TestSchedulerParityWithAdversary:
    def test_identical_event_order_with_adversary_active(self, wheel_stream):
        """With loss, duplication, a delay spike and a partition all
        active, the engine takes the wheel's events in ``heapq``'s order."""
        stream, _ = wheel_stream
        sim = Simulator(SimulatorConfig(seed=33))
        adversary = LinkAdversary(sim.adversary_rng(), loss_rate=0.15,
                                  duplicate_rate=0.1)
        adversary.add_delay_spike(5.0, 15.0, 4.0)
        adversary.add_partition("cut", [{1, 2, 3}], start=8.0, heal_time=20.0)
        sim.install_adversary(adversary)
        nodes = [sim.add_node(Counting(i + 1)) for i in range(12)]
        for node in nodes:
            node.send(node.node_id % 12 + 1, "Ping", sender=node.node_id)
            node.send((node.node_id + 5) % 12 + 1, "Ping", sender=node.node_id)
        sim.run_rounds(40)
        stats = sim.network.stats
        assert stats.duplicated > 0
        assert stats.drops_by_reason[DROP_ADVERSARY_LOSS] > 0
        assert len(stream) == sim.steps_executed > 0
        assert_heapq_order(sim, stream)


class TestSpecRoundTrip:
    def test_spec_json_round_trip_is_lossless(self):
        for name in SCENARIOS:
            spec = get_scenario(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec
            assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_spec_validation(self):
        phase = PhaseSpec(name="p")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="", phases=())
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="", facade="mesh", phases=(phase,))
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", description="", subscribers=1, phases=(phase,))
        with pytest.raises(ValueError):
            # crash_supervisor needs the sharded facade
            ScenarioSpec(name="x", description="",
                         phases=(PhaseSpec(name="p", crash_supervisor=True),))
        with pytest.raises(ValueError):
            PhaseSpec(name="p", loss_rate=1.0)
        with pytest.raises(ValueError):
            PartitionSpec(fraction=0.0)

    def test_unknown_scenario_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_library_has_at_least_six_scenarios(self):
        assert len(SCENARIOS) >= 6


class TestScenarioRunner:
    def test_reports_identical_across_reruns(self):
        spec = get_scenario("lossy-network")
        first = run_scenario(spec, seed=2).to_json()
        assert run_scenario(spec, seed=2).to_json() == first
        # And a different seed produces a genuinely different run.
        assert run_scenario(spec, seed=3).to_json() != first

    def test_lossy_scenario_passes_and_accounts_drops(self):
        report = run_scenario(get_scenario("lossy-network"), seed=1)
        assert report.passed
        assert report.stabilized
        phase = report.phases[0]
        assert phase.drops.get("adversary_loss", 0) > 0
        assert phase.delivery_checked and phase.delivered
        assert phase.publications_surviving > 0
        parsed = json.loads(report.to_json())
        assert parsed["passed"] is True
        assert parsed["phases"][0]["drops"]["adversary_loss"] == \
            phase.drops["adversary_loss"]

    def test_partition_scenario_drops_and_heals(self):
        report = run_scenario(get_scenario("rolling-partition"), seed=1)
        assert report.passed
        assert all(p.drops.get("partition", 0) > 0 for p in report.phases)

    def test_sharded_failover_scenario(self):
        report = run_scenario(get_scenario("sharded-supervisor-failover"),
                              seed=1)
        assert report.passed
        assert report.facade == "sharded"

    def test_runner_builds_matching_facade(self):
        runner = ScenarioRunner(get_scenario("flash-crowd"), seed=0)
        assert isinstance(runner.system, SupervisedPubSub)
        assert runner.system.sim.network.adversary is runner.adversary

    def test_invariants_flatten_per_phase(self):
        report = run_scenario(get_scenario("mass-crash-recovery"), seed=1)
        invariants = report.invariants()
        assert invariants["initial stabilization"]
        assert any(key.startswith("wave:") for key in invariants)
        assert all(invariants.values())


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_json_deterministic(self, capsys):
        assert cli_main(["--run", "lossy-network", "--seed", "1",
                         "--json"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["--run", "lossy-network", "--seed", "1",
                         "--json"]) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["scenario"] == "lossy-network"
        assert report["passed"] is True

    def test_run_human_readable(self, capsys):
        assert cli_main(["--run", "flash-crowd", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out and "Invariants:" in out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert cli_main(["--run", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_no_arguments_prints_help(self, capsys):
        assert cli_main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()
