"""Tests for the unified deployment API: SystemSpec, build_system, hooks, RunReport.

This module is deprecation-clean by construction: every test runs with
``DeprecationWarning`` promoted to an error (CI additionally runs the file
under ``-W error::DeprecationWarning``), so the surface can never lean on a
deprecated code path.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.api import (
    DEFAULT_CHECK_EVERY_ROUNDS,
    DEFAULT_MAX_ROUNDS,
    HookRegistry,
    RunReport,
    SystemSpec,
    build_stable,
    build_system,
)
from repro.core.config import ProtocolParams
from repro.core.facade import SupervisedPubSub
from repro.core.hooks import HOOK_EVENTS
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.sim.engine import SimulatorConfig

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


# --------------------------------------------------------------------- helpers
def _pre_redesign_system(spec, seed: int):
    """Construct the facade exactly the way drivers did before the unified
    API existed — the reference for byte-parity assertions."""
    return SupervisedPubSub(seed=seed, sim_config=SimulatorConfig(seed=seed),
                            shards=spec.shards)


def _hook_counts(registry):
    """Registered-callback count per event."""
    return {event: len(getattr(registry, f"_{event}")) for event in HOOK_EVENTS}


def _drive(system, n: int = 8, rounds: int = 60, topic: str = None):
    """Identical deterministic workload for parity comparisons."""
    for _ in range(n):
        system.add_subscriber(topic)
    system.run_until_legitimate()
    system.run_rounds(rounds)
    return system.message_stats().to_summary_dict()


class TestSystemSpecRoundTrip:
    def test_default_spec_round_trips_losslessly(self):
        spec = SystemSpec()
        assert SystemSpec.from_json(spec.to_json()) == spec
        assert SystemSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_custom_spec_round_trips_losslessly(self):
        spec = SystemSpec(
            topology="sharded", shards=5, seed=42,
            params=ProtocolParams(enable_flooding=False, publication_key_bits=32),
            sim=SimulatorConfig(min_delay=0.2, max_delay=2.0, timeout_jitter=0.1),
            max_rounds=500, check_every_rounds=2)
        clone = SystemSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.params.publication_key_bits == 32
        assert clone.sim.max_delay == 2.0

    def test_sim_seed_inherits_when_spec_defaults(self):
        spec = SystemSpec(sim=SimulatorConfig(seed=42))
        assert spec.seed == 42
        assert spec.sim_config().seed == 42
        # An all-defaults sim collapses to None; other knobs are kept with
        # a neutral seed (it lives on the spec).
        assert SystemSpec(sim=SimulatorConfig()).sim is None
        kept = SystemSpec(seed=7, sim=SimulatorConfig(min_delay=0.3))
        assert kept.sim.min_delay == 0.3 and kept.sim.seed == 0
        assert kept.sim_config().seed == 7

    def test_conflicting_seeds_raise_instead_of_silently_overriding(self):
        with pytest.raises(ValueError, match="conflicting seeds"):
            SystemSpec(seed=7, sim=SimulatorConfig(seed=999))
        # Explicitly agreeing is fine.
        assert SystemSpec(seed=7, sim=SimulatorConfig(seed=7)).seed == 7

    def test_adversarial_builder_seeds_from_its_config_only(self):
        from repro.workloads.initial_states import AdversarialConfig, build_adversarial_system
        config = AdversarialConfig(n=2, seed=5)
        assert build_adversarial_system(config)[0].sim.config.seed == 5
        with pytest.raises(TypeError, match="sim_config"):
            build_adversarial_system(config, sim_config=SimulatorConfig(seed=13))

    def test_invalid_topology_and_shard_count_raise(self):
        with pytest.raises(ValueError, match="topology"):
            SystemSpec(topology="mesh")
        with pytest.raises(ValueError, match="exactly one shard"):
            SystemSpec(topology="single", shards=2)
        with pytest.raises(ValueError, match="shards"):
            SystemSpec(topology="sharded", shards=0)

    def test_other_validation_errors(self):
        with pytest.raises(TypeError, match="scheduler"):
            SystemSpec(scheduler="wheel")  # the engine has one event queue
        with pytest.raises(ValueError, match="max_rounds"):
            SystemSpec(max_rounds=0)
        with pytest.raises(ValueError, match="check_every_rounds"):
            SystemSpec(check_every_rounds=0)

    @pytest.mark.parametrize("field", ["min_delay", "max_delay", "timeout_period",
                                       "detection_lag"])
    def test_non_finite_sim_times_are_rejected_at_load(self, field):
        """JSON admits ``NaN`` and ``Infinity``; a NaN lag used to load and
        leave the failure detector never suspecting anyone."""
        for literal in ("NaN", "Infinity"):
            text = f'{{"seed": 3, "sim": {{"{field}": {literal}}}}}'
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SystemSpec.from_dict(json.loads(text))

    @pytest.mark.parametrize("key,value,in_sim", [
        ("wheel_bucket_width", None, False),
        ("wheel_bucket_width", 0.2, True),
        ("telemetry", True, True),
    ])
    def test_retired_wheel_width_key_is_rejected_not_ignored(self, key, value, in_sim):
        """Retired keys have no shim: a document that still carries
        ``wheel_bucket_width`` (on the spec or inside ``sim``) or the
        simulator's old ``telemetry`` knob (the spec's ``telemetry`` is the
        one switch) fails loudly instead of being ignored."""
        data = SystemSpec().to_dict()
        assert data["sim"] is None and "wheel_bucket_width" not in data
        stale = {**data, "sim": {key: value}} if in_sim else {**data, key: value}
        with pytest.raises(TypeError, match=key):
            SystemSpec.from_dict(stale)

    def test_named_defaults_replace_the_magic_numbers(self):
        spec = SystemSpec()
        assert spec.max_rounds == DEFAULT_MAX_ROUNDS == 2_000
        assert spec.check_every_rounds == DEFAULT_CHECK_EVERY_ROUNDS == 5
        # The facade drivers share the same constants as their defaults.
        import inspect
        defaults = inspect.signature(SupervisedPubSub.run_until_legitimate)
        assert defaults.parameters["max_rounds"].default == DEFAULT_MAX_ROUNDS
        assert (defaults.parameters["check_every_rounds"].default
                == DEFAULT_CHECK_EVERY_ROUNDS)

    def test_with_overrides(self):
        spec = SystemSpec().with_overrides(topology="sharded", shards=3)
        assert spec.shards == 3
        assert SystemSpec().shards == 1  # original untouched


class TestBuilder:
    def test_builder_returns_the_right_facade(self):
        system = build_system(SystemSpec(seed=1))
        assert isinstance(system, SupervisedPubSub)
        assert system.supervisor_node_ids() == [0]
        cluster = build_system(SystemSpec(topology="sharded", shards=4, seed=1))
        assert isinstance(cluster, SupervisedPubSub)
        assert cluster.supervisor_node_ids() == [0, 1, 2, 3]

    def test_built_facade_remembers_its_spec(self):
        spec = SystemSpec(seed=5)
        system = build_system(spec)
        assert system.spec == spec
        assert build_system(SystemSpec.from_json(spec.to_json())).spec == spec

    def test_single_parity_seed_identical_message_stats(self):
        via_spec = _drive(build_system(SystemSpec(seed=7)))
        direct = _drive(SupervisedPubSub(seed=7))
        assert via_spec == direct

    def test_sharded_parity_seed_identical_message_stats(self):
        spec = SystemSpec(topology="sharded", shards=3, seed=5)
        via_spec = _drive(build_system(spec), topic="t")
        direct = _drive(SupervisedPubSub(shards=3, seed=5), topic="t")
        assert via_spec == direct

    def test_single_and_one_shard_topologies_build_one_system(self):
        # E11's "K=1 sharded matches single-supervisor load exactly", per message.
        single = _drive(build_system(SystemSpec(seed=7)))
        one_shard = _drive(build_system(SystemSpec(topology="sharded", shards=1, seed=7)))
        assert single == one_shard

    def test_build_stable_single_topic(self):
        system, subscribers = build_stable(SystemSpec(seed=3), 8)
        assert len(subscribers) == 8
        assert system.is_legitimate()

    def test_build_stable_multi_topic(self):
        system, subscribers = build_stable(
            SystemSpec(topology="sharded", shards=2, seed=3),
            topics=["a", "b"], subscribers_per_topic=4)
        assert len(subscribers) == 8
        assert system.is_legitimate("a") and system.is_legitimate("b")

    def test_build_stable_rejects_conflicting_population(self):
        with pytest.raises(ValueError, match="either topic or topics"):
            build_stable(SystemSpec(), 4, topic="x", topics=["y"])

    def test_build_stable_unstabilizable_raises(self):
        with pytest.raises(RuntimeError, match="did not stabilize"):
            build_stable(SystemSpec(seed=1, max_rounds=1), 16)


def _on_relegitimacy_sink(topics):  # on_relegitimacy passes two arguments
    pass


def _tolerant_relegitimacy(topics, rounds=0.0, extra=None):
    pass


class _PhaseSink:
    def on_phase(self, name, report):
        pass


class TestHooks:
    def test_subscribe_and_relegitimacy_hooks(self):
        events = []
        system = build_system(SystemSpec(seed=11))
        system.hooks.on_subscribe(lambda n, t: events.append(("subscribe", n, t))) \
            .on_relegitimacy(lambda ts, r: events.append(("relegitimacy", ts)))
        peers = [system.add_subscriber() for _ in range(6)]
        assert events[:6] == [("subscribe", p.node_id, "default") for p in peers]
        assert system.run_until_legitimate()
        assert events[6:] == [("relegitimacy", ("default",))]

    def test_hook_firing_order_under_supervisor_crash(self):
        events = []
        cluster = build_system(SystemSpec(topology="sharded", shards=2, seed=9))
        cluster.hooks.on_subscribe(lambda n, t: events.append("subscribe")) \
            .on_relegitimacy(lambda ts, r: events.append("relegitimacy")) \
            .on_supervisor_crash(
                lambda s, moved: events.append(("supervisor_crash", s, moved)))
        for i in range(6):
            cluster.add_subscriber(f"t{i % 2}")
        assert cluster.run_until_legitimate()
        moved = cluster.crash_supervisor(1)
        assert cluster.run_until_legitimate()
        # Order: all subscribes, stabilization, the crash, re-stabilization.
        assert events[:6] == ["subscribe"] * 6
        assert events[6] == "relegitimacy"
        assert events[7] == ("supervisor_crash", 1, tuple(moved))
        assert events[-1] == "relegitimacy"

    def test_scenario_phase_hook_fires_after_supervisor_crash(self):
        order = []
        runner = ScenarioRunner(get_scenario("sharded-supervisor-failover"), seed=1)
        runner.system.hooks.on_relegitimacy(lambda ts, r: order.append("relegitimacy")) \
            .on_supervisor_crash(lambda s, m: order.append("supervisor_crash")) \
            .on_phase(lambda name, rep: order.append(f"phase:{name}"))
        report = runner.run()
        assert report.passed
        crash_at = order.index("supervisor_crash")
        # Initial stabilization happens before the failover...
        assert "relegitimacy" in order[:crash_at]
        # ...and the phase hook closes the phase after the crash.
        assert order.index("phase:failover") > crash_at

    def test_emitting_without_listeners_is_a_cheap_no_op(self):
        registry = HookRegistry()
        registry.emit_subscribe(1, "t")
        registry.emit_relegitimacy(("t",), 1.0)
        registry.emit_supervisor_crash(0, ["t"])
        registry.emit_phase("p", None)
        assert _hook_counts(registry) == {e: 0 for e in _hook_counts(registry)}

    @pytest.mark.parametrize("event, callback", [
        ("subscribe", lambda node_id, topic, extra: None),
        ("relegitimacy", _on_relegitimacy_sink),
    ], ids=["three-arg-subscribe", "one-arg-relegitimacy"])
    def test_registration_rejects_a_callback_of_the_wrong_arity(self, event, callback):
        registry = HookRegistry()
        with pytest.raises(TypeError, match=f"on_{event}"):
            getattr(registry, f"on_{event}")(callback)
        assert _hook_counts(registry)[event] == 0

    @pytest.mark.parametrize("event, callback", [
        ("subscribe", lambda *args: None),
        ("relegitimacy", _tolerant_relegitimacy),
        ("phase", _PhaseSink().on_phase),
        ("relegitimacy", print),
        ("supervisor_crash", functools.partial(lambda tag, shard, moved: None, "x")),
    ], ids=["varargs", "trailing-defaults", "bound-method", "builtin", "partial"])
    def test_registration_accepts_any_callable_taking_the_arguments(self, event, callback):
        registry = HookRegistry()
        assert getattr(registry, f"on_{event}")(callback) is registry
        assert _hook_counts(registry)[event] == 1


class TestScenarioParityWithPreRedesignConstruction:
    """The acceptance bar: scenarios driven through the SystemSpec/builder
    path produce byte-identical reports to direct pre-redesign facade
    construction at the same seeds."""

    @pytest.mark.parametrize("name", ["lossy-network",
                                      "sharded-supervisor-failover"])
    def test_byte_identical_scenario_reports(self, name):
        spec = get_scenario(name)
        via_api = ScenarioRunner(spec, seed=1).run().to_json()
        old_system = _pre_redesign_system(spec, seed=1)
        via_old = ScenarioRunner(spec, seed=1, system=old_system).run().to_json()
        assert via_api == via_old

    def test_run_report_wraps_the_scenario_losslessly(self):
        report = ScenarioRunner(get_scenario("lossy-network"), seed=2).run()
        run = RunReport.from_scenario(report)
        assert run.scenario == report.to_dict()
        assert run.claims == report.invariants()
        assert run.passed == report.passed
        assert run.name == "lossy-network"
        assert len(run.rows) == len(report.phases)
        # Canonical JSON is deterministic per seed.
        rerun = ScenarioRunner(get_scenario("lossy-network"), seed=2).run()
        assert run.to_json() == RunReport.from_scenario(rerun).to_json()


class TestE12Parity:
    def test_e12_reports_byte_identical_at_same_seed(self):
        from repro.experiments.experiments import e12_adversarial_scenarios
        first = e12_adversarial_scenarios(seed=5)
        second = e12_adversarial_scenarios(seed=5)
        assert first.passed, first.failed_claims
        assert first.to_json() == second.to_json()
        assert isinstance(first, RunReport)


class TestRunReport:
    def test_claims_and_rows_drive_the_verdict(self):
        run = RunReport(name="X", title="t", headers=["a"])
        run.add_row(1)
        run.claim("holds", True)
        assert run.passed and not run.failed_claims
        run.claim("broken", False)
        assert not run.passed and run.failed_claims == ["broken"]
        assert run.name == "X"

    def test_message_stats_snapshots_embed_summaries(self):
        system = build_system(SystemSpec(seed=1))
        system.add_subscriber()
        system.run_rounds(10)
        run = RunReport(name="X")
        run.record_message_stats("after-warmup", system)
        snap = run.message_stats["after-warmup"]
        assert snap["total_sent"] >= snap["total_delivered"] > 0
        json.dumps(run.to_dict())  # JSON-safe end to end

    def test_canonical_json(self):
        run = RunReport(name="X", title="t")
        parsed = json.loads(run.to_json())
        assert parsed["name"] == "X" and parsed["passed"] is True
