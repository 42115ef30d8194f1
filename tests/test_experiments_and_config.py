"""Tests for ProtocolParams and the experiment harness (small configurations)."""

import importlib.util
from pathlib import Path

import pytest

from repro.api.report import RunReport, format_table
from repro.core.config import ProtocolParams
from repro.experiments import experiments as exp
from repro.experiments.runner import run_experiment


class TestProtocolParams:
    def test_defaults_are_valid(self):
        assert ProtocolParams().integrate_unknown_requesters
        assert not ProtocolParams(integrate_unknown_requesters=False).integrate_unknown_requesters

    def test_request_probability_matches_paper_formula(self):
        params = ProtocolParams()
        assert params.request_probability(1) == pytest.approx(1 / 2)
        assert params.request_probability(2) == pytest.approx(1 / (4 * 4))
        assert params.request_probability(3) == pytest.approx(1 / (8 * 9))

    def test_request_probability_is_capped_for_huge_labels(self):
        # Uncapped, 2^2000 would overflow the float division.
        assert ProtocolParams().request_probability(2000) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(anti_entropy_probability=-0.1)
        with pytest.raises(ValueError):
            ProtocolParams(publication_key_bits=1)


class TestRunnerAndReport:
    def test_experiment_result_claims(self):
        result = RunReport(name="X", title="test", headers=["a"], rows=[(1,)])
        assert result.passed
        result.claim("ok", True)
        result.claim("bad", False)
        assert not result.passed

    def test_run_experiment_records_wall_time(self):
        result = run_experiment(lambda: RunReport(name="X", title="t",
                                                  headers=["a"]))
        assert result.wall_seconds is not None and result.wall_seconds >= 0

    def test_format_table_and_render(self):
        assert "2.346" in format_table(["n", "value"], [[1, 2.3456]])
        table = format_table(["a"], [["x"], ["longer"]])
        assert "longer" in table


@pytest.mark.parametrize("holds, status", [(True, 0), (False, 1)])
def test_the_generator_exits_1_when_a_claim_fails(monkeypatch, tmp_path, holds, status):
    script = Path(__file__).resolve().parents[1] / "scripts" / "generate_experiments_md.py"
    spec = importlib.util.spec_from_file_location("generate_experiments_md", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    report = RunReport(name="E1", title="t", headers=["a"])
    report.claim("the claim", holds)
    monkeypatch.setattr(module, "run_experiment_campaign",
                        lambda jobs, progress: {"E1": report})
    out = tmp_path / "EXPERIMENTS.md"
    assert module.main([str(out)]) == status
    assert f"- [{'x' if holds else ' '}] the claim" in out.read_text(encoding="utf-8")


class TestExperimentsSmall:
    """Each experiment is exercised at a reduced size so the full test suite
    stays fast; the EXPERIMENTS.md generator runs the paper-scale versions."""

    def test_e1(self):
        result = exp.e1_topology(sizes=(8, 16, 32))
        assert result.passed, result.claims

    def test_e2(self):
        result = exp.e2_supervisor_load(sizes=(8, 16), rounds=25)
        assert result.passed, result.claims

    def test_e3(self):
        result = exp.e3_join_leave(sizes=(8,), operations=4)
        assert result.passed, result.claims

    def test_e4(self):
        result = exp.e4_convergence(sizes=(8,), seeds=(0,), components=2)
        assert result.passed, result.claims

    def test_e5(self):
        result = exp.e5_closure(n=8, observation_rounds=40, check_every=10)
        assert result.passed, result.claims

    def test_e6(self):
        result = exp.e6_publication_convergence(sizes=(8,), publication_count=6)
        assert result.passed, result.claims

    def test_e7(self):
        result = exp.e7_flooding(sizes=(16, 64), simulated_n=12)
        assert result.passed, result.claims

    def test_e8(self):
        result = exp.e8_congestion(sizes=(64,), samples=120)
        assert result.passed, result.claims

    def test_e9(self):
        result = exp.e9_failures(n=12, crash_fractions=(0.2,))
        assert result.passed, result.claims

    def test_e10(self):
        result = exp.e10_broker_comparison(n_subscribers=(16,),
                                           publication_counts=(5, 50))
        assert result.passed, result.claims

    def test_a1(self):
        result = exp.a1_ablation_integration(n=8, seeds=(0,))
        assert result.passed, result.claims

    def test_a3(self):
        result = exp.a3_ablation_flooding(n=12, publications=3)
        assert result.passed, result.claims

    def test_theoretical_request_expectation_helpers(self):
        assert exp.paper_expected_requests(1024) < 1.0
        assert exp.theoretical_expected_requests(1024) < 1.5
        assert exp.theoretical_expected_requests(2) >= 1.0

    def test_registry_contains_all_experiments(self):
        assert set(exp.ALL_EXPERIMENTS) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
            "E12", "E13", "A1", "A2", "A3",
        }
