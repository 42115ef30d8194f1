"""Tests for the telemetry subsystem (PR 7).

Covers the histogram's determinism contract (byte-reproducible state,
order-invariant merges, percentile edge cases), the span timeline, the
``SystemSpec.telemetry`` switch and what ``build_system`` turns on, the
observer-effect guarantees, RunReport/CampaignReport
serialization shapes, jobs-1-vs-N byte parity with telemetry on, and the
``python -m repro metrics`` verb on run and campaign artifacts.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.api.builder import build_system
from repro.api.report import RunReport
from repro.api.spec import SystemSpec
from repro.sim.engine import Simulator, SimulatorConfig
from repro.telemetry import (
    LatencyHistogram,
    ROUNDS_SPEC,
    SIM_SECONDS_SPEC,
    SpanTimeline,
    bounds_from_spec,
    merge_histogram_dicts,
    merge_telemetry_dicts,
)


# --------------------------------------------------------------- histograms
class TestLatencyHistogram:
    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(50) is None
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["max"] is None
        assert summary["p99"] is None
        assert hist.to_dict()["counts"] == {}

    def test_single_value(self):
        hist = LatencyHistogram()
        hist.record(0.5)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["max"] == 0.5
        # Every percentile of one observation is that observation: the
        # bucket bound is clamped to the exact max.
        assert summary["p50"] == summary["p90"] == summary["p99"] == 0.5

    def test_percentile_never_exceeds_max(self):
        # All mass in one bucket whose upper bound lies above the true max.
        hist = LatencyHistogram()
        for _ in range(1000):
            hist.record(0.95)  # bucket bound is 1.0
        assert hist.max_value == 0.95
        for q in (50, 90, 99, 100):
            assert hist.percentile(q) <= 0.95

    def test_overflow_and_underflow(self):
        hist = LatencyHistogram()
        top = hist.bounds[-1]
        hist.record(top * 10)  # overflow
        hist.record(0.0)  # below the lowest bound -> bucket 0
        assert hist.overflow == 1
        assert hist.slots[0] == 1
        assert hist.total == 2
        # The overflow rank reports the exact max, not a bucket bound.
        assert hist.percentile(99) == round(top * 10, 6)

    def test_percentile_range_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)

    def test_percentiles_monotone_on_random_data(self):
        hist = LatencyHistogram()
        rng = random.Random(7)
        for _ in range(5000):
            hist.record(rng.uniform(0.001, 50.0))
        values = [hist.percentile(q) for q in (1, 25, 50, 75, 90, 99, 100)]
        assert values == sorted(values)
        assert values[-1] == round(hist.max_value, 6)

    def test_merge_order_invariance(self):
        rng = random.Random(3)
        parts = []
        for _ in range(5):
            part = LatencyHistogram()
            for _ in range(200):
                part.record(rng.uniform(0.001, 2000.0))
            parts.append(part)
        forward = LatencyHistogram()
        for part in parts:
            forward.merge(part)
        backward = LatencyHistogram()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.to_dict() == backward.to_dict()
        assert forward.summary() == backward.summary()

    def test_merge_requires_compatible_spec(self):
        with pytest.raises(ValueError):
            LatencyHistogram(SIM_SECONDS_SPEC).merge(
                LatencyHistogram(ROUNDS_SPEC, unit="rounds"))

    def test_dict_round_trip(self):
        hist = LatencyHistogram(ROUNDS_SPEC, unit="rounds")
        for value in (0.05, 1.0, 3.7, 1e6):
            hist.record(value)
        clone = LatencyHistogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.summary() == hist.summary()
        # to_report_dict adds the digest but stays loadable.
        assert (LatencyHistogram.from_dict(hist.to_report_dict()).to_dict()
                == hist.to_dict())

    def test_a_stored_total_must_be_the_sum_of_the_buckets(self):
        """The total is derived from the slots, so a payload whose total
        disagrees with its buckets (or names a bucket past the last bound)
        is rejected instead of being silently re-counted."""
        hist = LatencyHistogram()
        for value in (0.2, 0.4, 1e9):
            hist.record(value)
        payload = hist.to_dict()
        assert payload["total"] == 3 and payload["overflow"] == 1
        with pytest.raises(ValueError, match="total"):
            LatencyHistogram.from_dict(dict(payload, total=4))
        past_last = dict(payload, counts={str(len(hist.bounds)): 1})
        with pytest.raises(ValueError, match="total"):
            LatencyHistogram.from_dict(dict(past_last, total=2))

    def test_delta(self):
        hist = LatencyHistogram()
        hist.record(0.2)
        earlier = hist.copy()
        hist.record(0.4)
        hist.record(0.8)
        diff = hist.delta(earlier)
        assert diff.total == 2
        with pytest.raises(ValueError):
            earlier.delta(hist)

    def test_bounds_from_spec_validation(self):
        assert len(bounds_from_spec((-2, 3, 8))) == 41
        with pytest.raises(ValueError):
            bounds_from_spec((3, 3, 8))
        with pytest.raises(ValueError):
            bounds_from_spec((0, 1, 0))

    def test_merge_histogram_dicts(self):
        assert merge_histogram_dicts([]) is None
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.1)
        b.record(0.9)
        merged = merge_histogram_dicts([a.to_dict(), b.to_dict()])
        assert merged["total"] == 2
        assert merged["max"] == 0.9


# -------------------------------------------------------------------- spans
class TestSpanTimeline:
    def test_add_mark_and_summary(self):
        spans = SpanTimeline()
        spans.add("phase", "warmup", 0.0, 10.0)
        spans.add("phase", "storm", 10.0, 12.5)
        spans.mark("supervisor_crash", "shard0", 11.0)
        summary = spans.summary()
        assert summary["phase"] == {"count": 2, "total": 12.5, "max": 10.0}
        assert summary["supervisor_crash"]["count"] == 1
        assert summary["supervisor_crash"]["total"] == 0.0

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            SpanTimeline().add("phase", "bad", 5.0, 4.0)

    def test_summary_sorted_by_kind(self):
        timeline = SpanTimeline()
        timeline.add("zeta", "a", 0.0, 1.0)
        timeline.add("alpha", "b", 0.0, 2.0)
        assert list(timeline.summary()) == ["alpha", "zeta"]

    def test_merged_summary_sorted_by_kind(self):
        merged = merge_telemetry_dicts([
            {"span_summary": {"zeta": {"count": 1, "total": 1.0, "max": 1.0}}},
            {"span_summary": {"alpha": {"count": 1, "total": 2.0, "max": 2.0}}},
        ])
        assert list(merged["span_summary"]) == ["alpha", "zeta"]


# ------------------------------------------------------ spec + builder knob
class TestTelemetryKnob:
    def test_spec_default_off_and_round_trip(self):
        spec = SystemSpec()
        assert spec.telemetry is False
        on = spec.with_overrides(telemetry=True)
        assert on.telemetry is True
        assert SystemSpec.from_dict(on.to_dict()) == on

    def test_build_system_turns_on_both_halves(self):
        system = build_system(SystemSpec(seed=3, telemetry=True))
        assert system.telemetry is not None
        assert system.sim.network.stats.delivery_latency is not None
        # the simulator config carries no telemetry knob: the spec is the
        # one switch
        assert not hasattr(system.sim.config, "telemetry")

    def test_facade_histogram_counts_every_delivery(self):
        # The facade-level twin of TestEngineTelemetry: the histogram is on
        # before the first drain, so it sees every delivery.
        system = build_system(SystemSpec(seed=3, telemetry=True))
        for _ in range(4):
            system.add_subscriber()
        system.run_rounds(20)
        stats = system.sim.network.stats
        assert stats.delivery_latency.total == stats.total_delivered > 0

    def test_telemetry_off_attaches_nothing(self):
        system = build_system(SystemSpec(seed=3))
        assert system.telemetry is None
        assert system.sim.network.stats.delivery_latency is None


# ------------------------------------------------------------------ engine
class TestEngineTelemetry:
    @staticmethod
    def _run(telemetry: bool):
        from repro.sim.node import ProtocolNode

        class Pinger(ProtocolNode):
            __slots__ = ()

            def on_timeout(self):
                self.send(self.node_id % 50 + 1, "Ping", sender=self.node_id)

            def on_Ping(self, sender, topic=None):
                pass

        sim = Simulator(SimulatorConfig(seed=11))
        if telemetry:
            sim.network.stats.enable_latency()
        for i in range(50):
            sim.add_node(Pinger(i + 1))
        sim.run_rounds(20)
        return sim

    def test_histogram_counts_every_delivery(self):
        sim = self._run(telemetry=True)
        hist = sim.network.stats.delivery_latency
        assert hist is not None
        assert hist.total == sim.network.stats.total_delivered > 0

    def test_observer_effect_is_zero(self):
        on, off = self._run(telemetry=True), self._run(telemetry=False)
        assert on.steps_executed == off.steps_executed
        assert on.now == off.now
        summary = on.network.stats.to_summary_dict()
        del summary["delivery_latency"]
        assert summary == off.network.stats.to_summary_dict()

    @pytest.mark.parametrize("telemetry", [True, False], ids=["on", "off"])
    def test_summary_carries_latency_exactly_with_a_histogram(self, telemetry):
        summary = self._run(telemetry=telemetry).network.stats.to_summary_dict()
        assert ("delivery_latency" in summary) is telemetry
        if telemetry:
            assert summary["delivery_latency"]["count"] == summary["total_delivered"]

    def test_profiling_hooks(self):
        sim = self._run(telemetry=False)
        assert sim.profile_snapshot() is None
        sim.enable_profiling()
        sim.run_rounds(5)
        profile = sim.profile_snapshot()
        assert profile["drains"] >= 1
        assert profile["steps"] > 0
        assert profile["wall_seconds"] >= 0


# ------------------------------------------------------- scenario run path
@pytest.fixture(scope="module")
def lossy_telemetry_report() -> RunReport:
    from repro.scenarios.library import get_scenario
    from repro.scenarios.runner import ScenarioRunner

    spec = get_scenario("lossy-network")
    system = build_system(spec.system_spec(seed=1)
                          .with_overrides(telemetry=True))
    return ScenarioRunner(spec, seed=1, system=system).run_report()


class TestScenarioTelemetry:
    def test_report_carries_percentiles(self, lossy_telemetry_report):
        telemetry = lossy_telemetry_report.telemetry
        assert telemetry is not None
        summary = telemetry["delivery_latency"]["summary"]
        assert summary["count"] > 0
        assert summary["p50"] <= summary["p90"] <= summary["p99"] <= summary["max"]
        stab = telemetry["stabilization_rounds"]["summary"]
        assert stab["count"] > 0
        assert stab["unit"] == "rounds"

    def test_spans_cover_phases_in_order(self, lossy_telemetry_report):
        spans = lossy_telemetry_report.telemetry["spans"]
        assert all(row[2] <= row[3] for row in spans)
        phase_names = [row[1] for row in spans if row[0] == "phase"]
        assert phase_names == ["lossy"]

    def test_telemetry_key_is_conditional(self, lossy_telemetry_report):
        assert "telemetry" in lossy_telemetry_report.to_dict()
        bare = RunReport(name="x")
        assert "telemetry" not in bare.to_dict()
        # from_dict round-trips both shapes.
        loaded = RunReport.from_dict(lossy_telemetry_report.to_dict())
        assert loaded.telemetry == lossy_telemetry_report.telemetry

    def test_scenario_json_unperturbed(self, lossy_telemetry_report):
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import ScenarioRunner

        plain = ScenarioRunner(get_scenario("lossy-network"), seed=1).run()
        assert (json.dumps(lossy_telemetry_report.scenario, sort_keys=True,
                           separators=(",", ":"))
                == plain.to_json())

    def test_supervisor_crash_marks(self):
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import ScenarioRunner

        spec = get_scenario("sharded-supervisor-failover")
        system = build_system(spec.system_spec(seed=2)
                              .with_overrides(telemetry=True))
        report = ScenarioRunner(spec, seed=2, system=system).run_report()
        spans = report.telemetry["spans"]
        crashes = [row for row in spans if row[0] == "supervisor_crash"]
        assert crashes, "failover scenario must mark supervisor crashes"
        # Marks are zero-width and interleaved in emission (time) order.
        assert all(row[2] == row[3] for row in crashes)
        starts = [row[2] for row in spans]
        assert starts.index(crashes[0][2]) <= len(starts)
        assert report.telemetry["span_summary"]["supervisor_crash"]["count"] \
            == len(crashes)


# ---------------------------------------------------------------- campaigns
class TestCampaignTelemetry:
    @staticmethod
    def _sweep():
        from repro.exec.demo import e13_loss_shards

        sweep = e13_loss_shards(seed=0)
        return sweep.with_overrides(
            base=sweep.base.with_overrides(telemetry=True))

    def test_jobs_parity_and_merge(self):
        from repro.exec.campaign import CampaignReport, CampaignRunner

        serial = CampaignRunner(self._sweep(), jobs=1).run()
        pooled = CampaignRunner(self._sweep(), jobs=2).run()
        assert serial.to_json() == pooled.to_json()
        merged = serial.telemetry
        assert merged is not None
        assert merged["runs"] == len(serial.tasks)
        per_task = [entry["report"]["telemetry"]["delivery_latency"]["total"]
                    for entry in serial.tasks]
        assert merged["delivery_latency"]["total"] == sum(per_task)
        round_trip = CampaignReport.from_json(serial.to_json())
        assert round_trip.telemetry == merged

    def test_merge_telemetry_dicts_none_passthrough(self):
        assert merge_telemetry_dicts([None, None]) is None
        assert merge_telemetry_dicts([]) is None

    def test_campaign_without_telemetry_has_no_key(self):
        from repro.exec.campaign import CampaignRunner
        from repro.exec.demo import e13_loss_shards

        campaign = CampaignRunner(e13_loss_shards(seed=0), jobs=1).run()
        assert campaign.telemetry is None
        assert "telemetry" not in campaign.to_dict()


# --------------------------------------------------------------------- CLI
class TestMetricsCli:
    def test_render_run_report(self, tmp_path, lossy_telemetry_report, capsys):
        from repro.cli import main

        path = tmp_path / "report.json"
        path.write_text(lossy_telemetry_report.to_json())
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "delivery latency" in out
        assert "p50=" in out
        assert "spans:" in out

    def test_exit_1_without_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bare.json"
        path.write_text(RunReport(name="x").to_json())
        assert main(["metrics", str(path)]) == 1
        assert "no telemetry" in capsys.readouterr().err

    def test_json_mode_round_trips(self, tmp_path, lossy_telemetry_report,
                                   capsys):
        from repro.cli import main

        path = tmp_path / "report.json"
        path.write_text(lossy_telemetry_report.to_json())
        assert main(["metrics", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == lossy_telemetry_report.telemetry

    def test_render_campaign_report(self, tmp_path, capsys):
        """A campaign artifact renders the merged block it carries."""
        from repro.cli import main
        from repro.exec.campaign import CampaignRunner

        campaign = CampaignRunner(TestCampaignTelemetry._sweep(), jobs=1).run()
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"merged telemetry across {len(campaign.tasks)} runs" in out
        assert "delivery latency" in out

    def test_campaign_json_mode_prints_the_merged_block(self, tmp_path, capsys):
        from repro.cli import main
        from repro.exec.campaign import CampaignRunner

        campaign = CampaignRunner(TestCampaignTelemetry._sweep(), jobs=1).run()
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        assert main(["metrics", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == campaign.telemetry

    def test_campaign_without_telemetry_exits_1(self, tmp_path, capsys):
        """A campaign run with telemetry off carries no merged block, so the
        verb has nothing to render."""
        from repro.cli import main
        from repro.exec.campaign import CampaignRunner
        from repro.exec.demo import e13_loss_shards

        campaign = CampaignRunner(e13_loss_shards(seed=0), jobs=1).run()
        path = tmp_path / "campaign.json"
        path.write_text(campaign.to_json())
        assert main(["metrics", str(path)]) == 1
        assert "no telemetry" in capsys.readouterr().err
