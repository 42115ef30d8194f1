"""Tests for the fuzzer: generator validity/determinism, oracle, shrinker
minimality, campaign reproducibility, and the seeded known-bug acceptance
check."""

import json

import pytest

from repro.cli import build_parser, main
from repro.exec.tasks import run_scenario_task
from repro.fuzz.campaign import FuzzCampaign, FuzzConfig
from repro.fuzz.generator import (QUICK_LIMITS, GeneratorLimits, SpecGenerator,
                                  generated_name)
from repro.fuzz.oracle import OracleSpec, Verdict, evaluate
from repro.fuzz.shrink import Shrinker
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec, load_spec_file
from repro.sim.rng import derive_rng


def fuzz_main(argv):
    return main(["fuzz", *argv])


def scenarios_main(argv):
    return main(["scenario", *argv])


#: Small fault space so generator/campaign tests run in seconds.
TINY = GeneratorLimits(
    max_phases=2, min_subscribers=6, max_subscribers=9, min_rounds=6.0,
    max_rounds=10.0, settle_rounds=150.0, max_churn_ops=2, max_publications=3)


def phase(**kwargs):
    kwargs.setdefault("name", "p")
    kwargs.setdefault("rounds", 8.0)
    kwargs.setdefault("settle_rounds", 100.0)
    return PhaseSpec(**kwargs)


def spec_of(*phases, **kwargs):
    kwargs.setdefault("name", "test-spec")
    kwargs.setdefault("description", "test")
    kwargs.setdefault("subscribers", 8)
    kwargs.setdefault("topics", ("t0",))
    return ScenarioSpec(phases=tuple(phases), **kwargs)


class TestSpecValidationEdgeCases:
    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError, match="at least one phase"):
            spec_of()

    def test_single_facade_rejects_multiple_shards(self):
        with pytest.raises(ValueError, match="exactly one shard"):
            spec_of(phase(), facade="single", shards=2)

    def test_sharded_facade_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            spec_of(phase(), facade="sharded", shards=0)

    def test_crash_supervisor_requires_sharded_facade(self):
        with pytest.raises(ValueError, match="sharded facade"):
            spec_of(phase(crash_supervisor=True), facade="single")

    def test_too_few_subscribers_and_no_topics(self):
        with pytest.raises(ValueError, match="at least 2 subscribers"):
            spec_of(phase(), subscribers=1)
        with pytest.raises(ValueError, match="at least one topic"):
            spec_of(phase(), topics=())

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_degenerate_partition_fractions_rejected(self, fraction):
        with pytest.raises(ValueError, match="strictly in"):
            PartitionSpec(fraction=fraction)

    def test_negative_heal_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PartitionSpec(heal_after_rounds=-1.0)

    @pytest.mark.parametrize("kwargs,message", [
        ({"rounds": 0.0}, "rounds must be positive"),
        ({"settle_rounds": -1.0}, "settle_rounds must be non-negative"),
        ({"joins": -1}, "non-negative"),
        ({"crash_fraction": 1.0}, r"\[0, 1\)"),
        ({"loss_rate": 1.0}, r"\[0, 1\)"),
        ({"duplicate_rate": -0.1}, r"\[0, 1\)"),
        ({"delay_spike_factor": 0.0}, "positive"),
    ])
    def test_phase_bounds(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            phase(**kwargs)

    def test_limits_validation(self):
        with pytest.raises(ValueError, match="min_subscribers"):
            GeneratorLimits(min_subscribers=1)
        with pytest.raises(ValueError, match="min_rounds"):
            GeneratorLimits(min_rounds=10.0, max_rounds=5.0)

    @pytest.mark.parametrize("make, field", [
        (GeneratorLimits, "max_churn_ops"),
        (GeneratorLimits, "max_publications"),
        (FuzzConfig, "shrink_budget"),
    ], ids=lambda value: value if isinstance(value, str) else value.__name__)
    def test_a_zero_count_is_refused_at_construction(self, make, field):
        """Accepted, a zero count ended the campaign later: ``randint(1, 0)``
        mid-generation, or the shrinker's refusal at the first finding."""
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            make(**{field: 0})

    def test_limits_round_trip(self):
        assert GeneratorLimits.from_dict(TINY.to_dict()) == TINY


class TestGenerator:
    def test_same_stream_same_spec(self):
        gen = SpecGenerator(TINY)
        a = gen.random_spec(derive_rng(7, "g"), "case")
        b = gen.random_spec(derive_rng(7, "g"), "case")
        assert a.to_json() == b.to_json()

    def test_generated_specs_valid_and_round_trip(self):
        gen = SpecGenerator(TINY)
        rng = derive_rng(0, "gen")
        for i in range(60):
            spec = gen.random_spec(rng, generated_name(0, i))
            # Constructing from the dict re-runs every validator; equality
            # proves the JSON round trip is lossless.
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_fault_space_is_actually_covered(self):
        gen = SpecGenerator(GeneratorLimits())
        rng = derive_rng(2, "gen")
        seen = set()
        for i in range(80):
            spec = gen.random_spec(rng, f"s{i}")
            seen.add(spec.facade)
            for p in spec.phases:
                if p.partition is not None:
                    seen.add("partition")
                if p.loss_rate:
                    seen.add("loss")
                if p.duplicate_rate:
                    seen.add("duplication")
                if p.delay_spike_factor != 1.0:
                    seen.add("delay")
                if p.crash_fraction:
                    seen.add("crash_wave")
                if p.joins or p.leaves or p.crashes:
                    seen.add("churn")
                if p.publications:
                    seen.add("publications")
                if p.crash_supervisor:
                    seen.add("crash_supervisor")
        assert {"single", "sharded", "partition", "loss", "duplication",
                "delay", "crash_wave", "churn", "publications",
                "crash_supervisor"} <= seen

    def test_generated_name_is_stable(self):
        assert generated_name(3, 7) == "fuzz-s3-i00007"


class TestOracle:
    def scenario(self, **kwargs):
        base = {"stabilized": True, "stabilize_rounds": 3.0, "phases": []}
        base.update(kwargs)
        return base

    def test_clean_run_passes(self):
        verdict = evaluate(OracleSpec(), self.scenario())
        assert not verdict.failed and verdict.signature == ()

    def test_invariant_violation_signature_is_phase_agnostic(self):
        scenario = self.scenario(phases=[
            {"name": "p0", "invariants": {"delivery": False}},
            {"name": "p1", "invariants": {"delivery": False}}])
        verdict = evaluate(OracleSpec(), scenario)
        assert verdict.failed
        assert verdict.signature == ("invariant:delivery",)
        assert verdict.reasons == ("invariant:delivery@p0",
                                   "invariant:delivery@p1")

    def test_budgets_disabled_by_default(self):
        scenario = self.scenario(
            stabilize_rounds=500.0,
            phases=[{"name": "p0", "invariants": {},
                     "relegitimized": True, "relegitimize_rounds": 900.0}])
        assert not evaluate(OracleSpec(), scenario).failed
        tight = OracleSpec(max_relegitimize_rounds=10.0,
                           max_stabilize_rounds=10.0)
        verdict = evaluate(tight, scenario)
        assert verdict.signature == ("budget:initial stabilization",
                                     "budget:relegitimacy")

    def test_verdict_round_trip(self):
        verdict = Verdict(failed=True, reasons=("a",), signature=("b",))
        assert Verdict.from_dict(verdict.to_dict()) == verdict


class TestShrinkerMinimality:
    """Shrinker properties via synthetic (instant) predicates."""

    def test_two_phase_dependency_is_one_minimal(self):
        # Fails iff BOTH "a" and "b" phases are present: the shrinker must
        # keep exactly that pair, and removing either survivor must pass.
        def still_fails(spec):
            names = {p.name for p in spec.phases}
            return {"a", "b"} <= names

        start = spec_of(phase(name="a"), phase(name="noise", loss_rate=0.1),
                        phase(name="b"), subscribers=12)
        outcome = Shrinker(still_fails, budget=500).shrink(start)
        shrunk = outcome.spec
        assert {p.name for p in shrunk.phases} == {"a", "b"}
        assert still_fails(shrunk)
        for index in range(len(shrunk.phases)):
            rest = tuple(p for i, p in enumerate(shrunk.phases) if i != index)
            assert not still_fails(
                ScenarioSpec(name=shrunk.name, description="d",
                             subscribers=shrunk.subscribers,
                             topics=shrunk.topics, phases=rest))

    def test_magnitudes_shrink_toward_floor(self):
        def still_fails(spec):
            return (len(spec.phases) >= 1
                    and spec.phases[0].loss_rate >= 0.05)

        start = spec_of(phase(name="lossy", loss_rate=0.16, publications=5,
                              joins=3),
                        phase(name="noise"), subscribers=16)
        outcome = Shrinker(still_fails, budget=500).shrink(start)
        shrunk = outcome.spec
        assert len(shrunk.phases) == 1
        assert shrunk.subscribers == 4          # ladder floor
        assert 0.05 <= shrunk.phases[0].loss_rate < 0.16
        assert shrunk.phases[0].publications == 0   # neutralized
        assert shrunk.phases[0].joins == 0

    def test_spec_name_is_never_touched(self):
        # The runner derives phase RNG from the spec name; renaming a
        # candidate would reseed the run and evaporate the failure.
        outcome = Shrinker(lambda spec: True, budget=50).shrink(
            spec_of(phase(name="a"), phase(name="b"), name="keep-me"))
        assert outcome.spec.name == "keep-me"

    def test_budget_exhaustion_is_flagged_and_spec_stays_failing(self):
        calls = []

        def still_fails(spec):
            calls.append(spec)
            return False

        start = spec_of(phase(loss_rate=0.1), phase(publications=2))
        outcome = Shrinker(still_fails, budget=3).shrink(start)
        assert outcome.budget_exhausted
        assert outcome.evals == 3 == len(calls)
        assert outcome.spec == start   # nothing accepted, original kept

    def test_settle_rounds_never_shrunk(self):
        def still_fails(spec):
            return spec.phases[0].loss_rate >= 0.05

        start = spec_of(phase(loss_rate=0.1, settle_rounds=123.0))
        outcome = Shrinker(still_fails, budget=500).shrink(start)
        assert outcome.spec.phases[0].settle_rounds == 123.0


class TestCampaign:
    def config(self, **kwargs):
        kwargs.setdefault("seed", 3)
        kwargs.setdefault("budget_iters", 6)
        kwargs.setdefault("limits", TINY)
        return FuzzConfig(**kwargs)

    def test_config_round_trip_and_validation(self):
        cfg = self.config(oracle=OracleSpec(max_relegitimize_rounds=2.0))
        assert FuzzConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError):
            FuzzConfig(budget_iters=0)

    def test_same_seed_same_report_bytes(self):
        cfg = self.config()
        first = FuzzCampaign(cfg).run().to_json()
        second = FuzzCampaign(cfg).run().to_json()
        assert first == second

    @pytest.mark.parametrize("stop", [False, True], ids=["budget", "max-findings"])
    def test_jobs_do_not_change_report_bytes(self, stop):
        # With ``stop``, the first finding lands on an odd iteration, with
        # the next spec already running on the pool's other worker: the
        # campaign must end at that result, not after the in-flight ones.
        cfg = self.config(**({"budget_iters": 12, "max_findings": 1, "shrink_budget": 1,
                              "oracle": OracleSpec(max_relegitimize_rounds=0.5)}
                             if stop else {}))
        inline = FuzzCampaign(cfg, jobs=1).run()
        fanned = FuzzCampaign(cfg, jobs=2).run()
        assert inline.to_json() == fanned.to_json()
        if stop:
            assert inline.iterations == inline.findings[0].iteration + 1
            assert inline.iterations % 2 == 1

    def test_one_pool_per_run(self, pools_built):
        FuzzCampaign(self.config(budget_iters=12), jobs=2).run()
        assert pools_built == [2]

    def test_wall_clock_budget_truncates_at_any_job_count(self, monkeypatch):
        # A clock that steps one second per reading: with a 3.5 s budget the
        # campaign reads it once for the deadline and once before each
        # result, so it stops before the fourth, at any job count.
        import itertools
        import threading
        import types

        import repro.fuzz.campaign as campaign

        def run(jobs):
            ticks = itertools.count()
            monkeypatch.setattr(campaign, "time", types.SimpleNamespace(
                monotonic=lambda: float(next(ticks))))
            before = threading.active_count()
            report = FuzzCampaign(self.config(budget_iters=12), jobs=jobs,
                                  budget_seconds=3.5).run()
            assert threading.active_count() == before  # the pool is shut down
            return report

        inline, pooled = run(1), run(2)
        assert inline.truncated and pooled.truncated
        assert inline.iterations == pooled.iterations == 3
        assert inline.to_json() == pooled.to_json()

    def test_case_seeds_are_schedule_independent(self):
        campaign = FuzzCampaign(self.config())
        seeds = [campaign.case_seed(i) for i in range(16)]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [FuzzCampaign(self.config()).case_seed(i)
                         for i in range(16)]

    def test_report_contains_no_wall_clock(self):
        report = FuzzCampaign(self.config()).run()
        text = report.to_json()
        assert report.iterations == 6
        assert '"truncated":false' in text
        assert "wall" not in text

    def test_seeded_known_bug_is_found_and_shrunk(self):
        # Deliberately weakened oracle: any relegitimacy over half a round
        # is "a bug".  The campaign must find it, dedupe it, and shrink the
        # reproduction to a handful of phases (acceptance: <= 3).
        cfg = self.config(budget_iters=12,
                          oracle=OracleSpec(max_relegitimize_rounds=0.5),
                          max_findings=1)
        report = FuzzCampaign(cfg).run()
        assert not report.passed
        finding = report.findings[0]
        assert finding.kind == "oracle"
        assert "budget:relegitimacy" in finding.signature
        assert finding.shrunk_spec is not None
        assert len(finding.shrunk_spec["phases"]) <= 3
        # The shrunk spec still fails with the same signature (re-run it
        # exactly as the shrinker did: same task, case seed and oracle).
        result = run_scenario_task({"spec": finding.shrunk_spec,
                                    "seed": finding.seed})
        verdict = evaluate(cfg.oracle, result["scenario"])
        assert verdict.failed
        assert verdict.signature == finding.signature


#: The rule each float flag's argparse type states when it rejects a value.
FLOAT_FLAG_RULES = {"--budget-seconds": "a finite number > 0",
                    "--releg-budget": "a finite number >= 0",
                    "--stabilize-budget": "a finite number >= 0"}


class TestFuzzCLI:
    def test_clean_run_exits_zero(self, capsys):
        assert fuzz_main(["--budget-iters", "4", "--quick",
                          "--seed", "3"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_findings_exit_one_and_artifacts_replay(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        findings = tmp_path / "findings"
        code = fuzz_main(["--budget-iters", "12", "--quick", "--seed", "3",
                          "--releg-budget", "0.5", "--max-findings", "1",
                          "--out", str(out), "--findings-dir", str(findings)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False and report["findings"]
        artifacts = sorted(findings.glob("*.json"))
        assert artifacts
        artifact = json.loads(artifacts[0].read_text())
        assert artifact["schema"] == 1
        assert artifact["source"]["tool"] == "repro-fuzz"
        assert "scheduler" not in artifact
        # The artifact is exactly what tests/corpus replays: loadable by the
        # scenarios CLI with its embedded seed.
        spec, seed = load_spec_file(str(artifacts[0]))
        assert seed == report["findings"][0]["seed"]
        assert spec.to_dict() == artifact["spec"]
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["scenario", "--run", "lossy-network", "--jobs", "0"],
        ["sweep", "--demo", "scenario-replicates", "--jobs", "-5"],
        ["fuzz", "--jobs", "0"],
        ["fuzz", "--max-findings", "0"],
        ["fuzz", "--shrink-budget", "-1"],
        ["fuzz", "--budget-iters", "0"],
        ["fuzz", "--quick", "--budget-iters", "2", "--budget-seconds", "-1"],
        ["fuzz", "--quick", "--budget-iters", "2", "--budget-seconds", "0"],
        ["fuzz", "--quick", "--budget-iters", "2", "--budget-seconds", "nan"],
        ["fuzz", "--quick", "--stabilize-budget", "nan"],
        ["fuzz", "--quick", "--stabilize-budget", "inf"],
        ["fuzz", "--quick", "--releg-budget", "-5"],
        ["fuzz", "--quick", "--releg-budget", "nan"],
    ], ids=lambda argv: " ".join(argv))
    def test_an_out_of_range_number_is_a_usage_error(self, argv, capsys):
        flag, value = argv[-2:]
        rule = FLOAT_FLAG_RULES.get(flag, ">= 1")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be {rule}, got {value}\n" in capsys.readouterr().err

    def test_a_zero_rounds_budget_is_accepted(self):
        args = build_parser().parse_args(
            ["fuzz", "--releg-budget", "0", "--stabilize-budget", "0"])
        assert args.releg_budget == args.stabilize_budget == 0.0

    def test_quick_limits_are_valid(self):
        assert GeneratorLimits.from_dict(QUICK_LIMITS.to_dict()) == QUICK_LIMITS


#: What a spec or report file given on the command line can be instead of one.
BAD_FILES = {"missing": None, "malformed": "{not json", "not-an-object": "[1, 2]",
             "wrong-shape": '{"phases": "not-a-list"}'}


class TestScenarioCLISpecReplay:
    def failing_spec(self):
        # A partition that never heals: delivery to the isolated minority
        # deterministically fails.
        return spec_of(
            phase(name="cut", rounds=10.0, settle_rounds=60.0,
                  publications=4, expect_relegitimize=False,
                  partition=PartitionSpec(name="forever", fraction=0.4,
                                          heal_after_rounds=100000.0)),
            name="never-heals", subscribers=10)

    def test_invariant_violation_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "failing.json"
        path.write_text(self.failing_spec().to_json())
        assert scenarios_main(["--spec", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_an_old_artifact_replays_on_the_wheel(self, tmp_path, capsys):
        """An artifact from when a heap queue existed names it; the key is
        ignored (the heap emitted the wheel's event order) and the
        artifact's seed still overrides the CLI's."""
        path = tmp_path / "artifact.json"
        artifact = {"schema": 1, "spec": self.failing_spec().to_dict(),
                    "seed": 5, "scheduler": "heap"}
        path.write_text(json.dumps(artifact))
        spec, seed = load_spec_file(str(path), default_seed=0)
        assert seed == 5 and spec == self.failing_spec()
        assert scenarios_main(["--spec", str(path), "--json"]) == 1
        assert '"seed":5' in capsys.readouterr().out

    # An object with no telemetry is a valid metrics input (exit 1), so
    # metrics takes every bad file but the wrong-shaped spec.
    @pytest.mark.parametrize("verb, bad", [
        pytest.param(verb, bad, id=f"{verb}-{bad}")
        for verb in ("scenario", "sweep", "metrics") for bad in BAD_FILES
        if (verb, bad) != ("metrics", "wrong-shape")])
    def test_missing_and_garbage_files_exit_two(self, tmp_path, capsys, verb, bad):
        path = tmp_path / "bad.json"
        if BAD_FILES[bad] is not None:
            path.write_text(BAD_FILES[bad])
        argv = [verb, str(path)] if verb == "metrics" else [verb, "--spec", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"repro {verb}: {path}: "), err
