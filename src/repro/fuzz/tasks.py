"""The fuzz case task function — one scenario run, observed for coverage.

Runnable by :func:`repro.exec.backend.run_tasks` (inline, or on the worker
processes of a stdlib pool, opened per run), like every other task in the
tree: JSON payload in, JSON result
out, no wall-clock values anywhere in the result, so fuzz campaigns stay
byte-reproducible at any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Any, Dict


def run_fuzz_case(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one generated scenario, collect its coverage keys, apply the
    failure oracle.

    Payload keys
    ------------
    spec:
        A :class:`~repro.scenarios.spec.ScenarioSpec` dict.
    seed:
        Passed to the :class:`~repro.scenarios.runner.ScenarioRunner`
        (default 0).
    oracle:
        Optional :class:`~repro.fuzz.oracle.OracleSpec` dict.

    Result keys: ``spec_name``, ``seed``, ``coverage``
    (sorted key list), ``verdict`` (see :class:`~repro.fuzz.oracle.Verdict`)
    and the full ``scenario`` report dict.
    """
    from repro.core.hooks import HookRegistry
    from repro.fuzz.coverage import CoverageCollector, spec_coverage_keys
    from repro.fuzz.oracle import OracleSpec, evaluate
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(payload["spec"])
    seed = int(payload.get("seed", 0))
    oracle = OracleSpec.from_dict(payload.get("oracle") or {})

    hooks = HookRegistry()
    collector = CoverageCollector().install(hooks)
    runner = ScenarioRunner(spec, seed=seed, hooks=hooks)
    scenario = runner.run().to_dict()

    verdict = evaluate(oracle, scenario)
    keys = sorted(collector.keys | spec_coverage_keys(spec))
    return {
        "spec_name": spec.name,
        "seed": seed,
        "coverage": keys,
        "verdict": verdict.to_dict(),
        "scenario": scenario,
    }
