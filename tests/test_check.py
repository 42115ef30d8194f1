"""Tests for repro.check: the determinism & invariant static-analysis gate.

Covers every rule against a bad-snippet fixture, the pragma waiver, the CLI
contract (exit codes, ``--json`` round-trip), the repo-is-clean gate the CI
job relies on, and regression tests for the real findings the checker
surfaced when first run on this tree.
"""

import json
from pathlib import Path

import pytest

from repro.check import CheckEngine, Finding
from repro.check.cli import main as check_main
from repro.check.engine import iter_python_files
from repro.check.pragmas import parse_pragmas
from repro.check.rules import available_rules, default_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "check"
SRC = REPO_ROOT / "src" / "repro"


def run_rule(rule_id, *paths, root=None):
    rules = [r for r in default_rules() if r.id == rule_id]
    assert rules, f"unknown rule {rule_id}"
    engine = CheckEngine(rules=rules)
    return engine.run(list(paths), root=root or FIXTURES)


# --------------------------------------------------------------------- rules
class TestRuleRegistry:
    def test_all_seven_rules_registered(self):
        ids = {cls.id for cls in available_rules()}
        assert ids == {
            "hook-signature",
            "no-ambient-nondeterminism",
            "no-hotpath-allocation",
            "no-unsorted-iteration-into-output",
            "rng-discipline",
            "slots-complete",
            "spec-field-coverage",
        }

    def test_rule_ids_sorted_and_titled(self):
        classes = available_rules()
        assert [c.id for c in classes] == sorted(c.id for c in classes)
        assert all(c.title for c in classes)


class TestAmbientNondeterminismRule:
    def test_flags_wallclock_uuid_and_entropy(self):
        result = run_rule("no-ambient-nondeterminism",
                          FIXTURES / "bad_nondeterminism.py")
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 3
        assert any("time.time" in m for m in messages)
        assert any("uuid.uuid4" in m for m in messages)
        assert any("os.urandom" in m for m in messages)

    def test_findings_carry_position(self):
        result = run_rule("no-ambient-nondeterminism",
                          FIXTURES / "bad_nondeterminism.py")
        lines = sorted(f.line for f in result.findings)
        assert lines == [9, 10, 11]

    def test_no_module_is_exempt_only_the_pragma_waives(self, tmp_path):
        # The module name is the one a module allowlist used to exempt
        # wholesale (the retired ``repro.perf``).
        package = tmp_path / "repro" / "perf"
        package.mkdir(parents=True)
        for directory in (package.parent, package):
            (directory / "__init__.py").write_text("")
        module = package / "anything.py"
        module.write_text(
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.perf_counter()  # repro: allow[no-ambient-nondeterminism]\n")
        result = run_rule("no-ambient-nondeterminism", module, root=tmp_path)
        assert [(f.line, f.rule) for f in result.findings] == [
            (2, "no-ambient-nondeterminism")]
        assert result.suppressed == 1


class TestRngDisciplineRule:
    def test_flags_module_level_random(self):
        result = run_rule("rng-discipline", FIXTURES / "bad_rng.py")
        assert len(result.findings) == 2
        assert all(f.rule == "rng-discipline" for f in result.findings)


class TestSortedOutputRule:
    def test_flags_unsorted_iteration_in_serializers(self):
        result = run_rule("no-unsorted-iteration-into-output",
                          FIXTURES / "bad_sorted.py")
        assert len(result.findings) == 2  # to_dict items(), snapshot keys()
        messages = " ".join(f.message for f in result.findings)
        assert "to_dict" in messages and "snapshot" in messages

    def test_order_neutral_wrappers_not_flagged(self):
        result = run_rule("no-unsorted-iteration-into-output",
                          FIXTURES / "bad_sorted.py")
        assert not any("totals_ok" in f.message for f in result.findings)


class TestSlotsCompleteRule:
    def test_flags_unslotted_and_incomplete_classes(self):
        result = run_rule("slots-complete", FIXTURES / "repro",
                          root=FIXTURES)
        by_message = [f.message for f in result.findings]
        assert len(result.findings) == 3
        assert any("Unslotted" in m and "lacks __slots__" in m
                   for m in by_message)
        assert any("PlainDataclass" in m and "lacks __slots__" in m
                   for m in by_message)
        assert any("Incomplete.sneaky" in m for m in by_message)

    def test_properties_and_classmethods_not_flagged(self):
        # Regression: the first version of the rule flagged assignments
        # routed through property setters and `cls.<attr>` writes inside
        # classmethods (both spurious on Simulator/ProtocolNode).
        result = run_rule("slots-complete", FIXTURES / "repro",
                          root=FIXTURES)
        assert not any("WellBehaved" in f.message for f in result.findings)


class TestHookSignatureRule:
    def test_flags_arity_mismatches_only(self):
        result = run_rule("hook-signature", FIXTURES / "bad_hooks.py")
        assert len(result.findings) == 2
        messages = " ".join(f.message for f in result.findings)
        assert "subscribe" in messages and "delivery" in messages
        assert "phase" not in messages


class TestHotpathAllocationRule:
    FIXTURE = FIXTURES / "repro" / "sim" / "bad_hotpath.py"

    def test_flags_displays_and_comprehensions(self):
        result = run_rule("no-hotpath-allocation", self.FIXTURE,
                          root=FIXTURES)
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 5
        assert sum("dict display" in m for m in messages) == 1
        assert sum("list display" in m for m in messages) == 2
        assert sum("set display" in m for m in messages) == 1
        assert sum("set comprehension" in m for m in messages) == 1

    def test_marker_scopes_to_innermost_function(self):
        # The marked closure is budgeted; its enclosing builder's setup
        # dict and the unmarked cold_summary allocations are not.
        result = run_rule("no-hotpath-allocation", self.FIXTURE,
                          root=FIXTURES)
        assert any("pump()" in f.message for f in result.findings)
        assert not any("bind_pump()" in f.message for f in result.findings)
        assert not any("cold_summary()" in f.message
                       for f in result.findings)
        assert not any("warmed_up()" in f.message for f in result.findings)

    def test_pragma_waives_cold_branch(self):
        result = run_rule("no-hotpath-allocation", self.FIXTURE,
                          root=FIXTURES)
        assert not any("fallback_send()" in f.message
                       for f in result.findings)
        assert result.suppressed == 1

    def test_rule_scoped_to_sim_modules(self, tmp_path):
        outside = tmp_path / "hot_elsewhere.py"
        outside.write_text(
            "def f(items):\n"
            "    # repro: hotpath\n"
            "    return [{'k': i} for i in items]\n")
        result = run_rule("no-hotpath-allocation", outside, root=tmp_path)
        assert result.findings == []

    def test_engine_hot_loops_stay_clean(self):
        # The real marked functions (engine._send_fast / _run_blocks) must
        # carry pragmas on every deliberate allocation — this is the same
        # invariant CI's repro-check gate enforces, pinned here so a
        # local pytest run catches a regression without the CLI.
        engine_py = REPO_ROOT / "src" / "repro" / "sim" / "engine.py"
        source = engine_py.read_text()
        assert source.count("# repro: hotpath") >= 2
        result = run_rule("no-hotpath-allocation", engine_py,
                          root=REPO_ROOT / "src")
        assert result.findings == []
        assert result.suppressed >= 2


class TestSpecFieldCoverageRule:
    def test_flags_unvalidated_field_and_stale_key(self):
        result = run_rule("spec-field-coverage", FIXTURES / "repro",
                          root=FIXTURES)
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 2
        assert any("'shards'" in m and "validation" in m for m in messages)
        assert any("'legacy_mode'" in m and "stale" in m for m in messages)


# ---------------------------------------------------------- waiver machinery
class TestPragmas:
    def test_parse_same_line_comment_line_and_wildcard(self):
        source = (FIXTURES / "pragma_ok.py").read_text()
        pragmas = parse_pragmas(source)
        assert any("no-ambient-nondeterminism" in rules
                   for rules in pragmas.values())
        assert any("*" in rules for rules in pragmas.values())

    def test_pragmas_suppress_all_fixture_findings(self):
        engine = CheckEngine()
        result = engine.run([FIXTURES / "pragma_ok.py"], root=FIXTURES)
        assert result.findings == []
        assert result.suppressed == 3

    def test_pragma_only_covers_named_rule(self, tmp_path):
        snippet = tmp_path / "snippet.py"
        snippet.write_text(
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro: allow[some-other-rule]\n")
        engine = CheckEngine()
        result = engine.run([snippet], root=tmp_path)
        assert len(result.findings) == 1
        assert result.suppressed == 0


# ----------------------------------------------------------------------- CLI
class TestCli:
    def test_exit_zero_on_clean_file(self, capsys):
        rc = check_main([str(FIXTURES / "pragma_ok.py")])
        assert rc == 0
        assert "suppressed by pragma" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys):
        rc = check_main([str(FIXTURES / "bad_rng.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[rng-discipline]" in out

    def test_exit_two_on_missing_path(self, capsys):
        rc = check_main(["definitely/not/a/path.py"])
        assert rc == 2

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(SystemExit):
            check_main([str(FIXTURES / "bad_rng.py"), "--rules", "nope"])

    def test_list_rules(self, capsys):
        rc = check_main(["--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no-ambient-nondeterminism:" in out

    def test_json_round_trip(self, capsys):
        rc = check_main([str(FIXTURES / "bad_rng.py"), "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        rebuilt = [Finding.from_dict(entry) for entry in payload["findings"]]
        engine = CheckEngine()
        direct = engine.run([FIXTURES / "bad_rng.py"],
                            root=Path(".")).findings
        assert sorted(f.message for f in rebuilt) == \
               sorted(f.message for f in direct)
        assert payload["clean"] is False
        assert payload["counts"] == {"rng-discipline": 2}


# ----------------------------------------------------------------- repo gate
class TestRepoGate:
    def test_src_repro_is_clean(self):
        """The CI gate: the shipped tree passes its own checker."""
        result = CheckEngine().run([SRC], root=SRC)
        assert result.parse_errors == []
        assert result.findings == [], \
            "\n".join(f.render() for f in result.findings)

    def test_seeded_nondeterminism_bug_fails_the_gate(self, tmp_path, capsys):
        """End-to-end CI semantics: introduce a wall-clock read into a
        serializer, run the CLI as CI would, and require exit code 1."""
        bugged = tmp_path / "report.py"
        bugged.write_text(
            "import time\n\n\n"
            "class Report:\n"
            "    def to_dict(self):\n"
            "        return {'at': time.time()}\n")
        rc = check_main([str(bugged)])
        assert rc == 1

    def test_file_discovery_skips_caches(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [p.name for p in files] == ["real.py"]


# ------------------------------------------------- regressions for the fixes
class TestFixedFindings:
    """The checker's first run over this repo surfaced real issues; these
    pin the fixes so they cannot regress."""

    def test_simulator_config_validates_delays_and_lag(self):
        from repro.sim.engine import SimulatorConfig
        with pytest.raises(ValueError, match="min_delay"):
            SimulatorConfig(min_delay=-0.1)
        # zero used to validate here and die later in Network.__init__ with
        # other words; the drain's window argument needs it strictly positive
        with pytest.raises(ValueError, match="min_delay must be positive"):
            SimulatorConfig(min_delay=0.0)
        with pytest.raises(ValueError, match="max_delay"):
            SimulatorConfig(min_delay=0.5, max_delay=0.1)
        with pytest.raises(ValueError, match="detection_lag"):
            SimulatorConfig(detection_lag=-1.0)

    def test_simulator_config_is_slotted(self):
        from repro.sim.engine import SimulatorConfig
        cfg = SimulatorConfig()
        with pytest.raises(AttributeError):
            cfg.not_a_field = 1

    def test_trace_types_are_slotted(self):
        from repro.sim.tracing import TraceEvent, Tracer
        event = TraceEvent(time=0.0, kind="x")
        with pytest.raises(AttributeError):
            event.extra = 1
        tracer = Tracer()
        with pytest.raises(AttributeError):
            tracer.extra = 1

    def test_span_timeline_summary_sorted_by_kind(self):
        from repro.telemetry.spans import SpanTimeline
        timeline = SpanTimeline()
        timeline.add("zeta", "a", 0.0, 1.0)
        timeline.add("alpha", "b", 0.0, 2.0)
        summary = timeline.summary()
        assert list(summary) == ["alpha", "zeta"]

    def test_merged_span_summary_sorted_by_kind(self):
        from repro.telemetry.recorder import merge_telemetry_dicts
        merged = merge_telemetry_dicts([
            {"span_summary": {"zeta": {"count": 1, "total": 1.0, "max": 1.0}}},
            {"span_summary": {"alpha": {"count": 1, "total": 2.0, "max": 2.0}}},
        ])
        assert list(merged["span_summary"]) == ["alpha", "zeta"]

    def test_scenario_invariants_sorted_within_phase(self):
        from repro.scenarios.runner import PhaseReport, ScenarioReport
        phase = PhaseReport(name="p", disruptions=[])
        phase.invariants = {"zeta": True, "alpha": False}
        report = ScenarioReport(scenario="s", seed=0, facade="f", shards=1,
                                subscribers_initial=0, topics=[],
                                stabilized=True, phases=[phase])
        keys = list(report.invariants())
        assert keys == ["initial stabilization", "p: alpha", "p: zeta"]
