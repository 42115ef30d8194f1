"""Task functions runnable by :func:`repro.exec.backend.run_tasks`.

Every function here takes one JSON-safe payload dict and returns one
JSON-safe result dict, so it runs inline (``jobs=1``) or on the worker
processes of a stdlib pool, opened per run (``jobs=N``), with identical
results.  Imports happen inside the functions: a task only pays for the
subsystem it actually uses.
"""

from __future__ import annotations

from typing import Any, Dict


def run_scenario_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one adversarial scenario; return the unified
    :class:`~repro.api.report.RunReport` dict (the full
    :class:`~repro.scenarios.runner.ScenarioReport` dict rides along under
    its ``"scenario"`` key, losslessly).

    Payload keys
    ------------
    spec:
        A :class:`~repro.scenarios.spec.ScenarioSpec` dict.
    seed:
        Passed through to the runner (default 0).
    system:
        Optional :class:`~repro.api.spec.SystemSpec` dict.  When given, the
        facade is built from it and injected into the runner — this is how
        sweeps forward protocol/simulator knobs from their base spec that a
        bare ``ScenarioSpec`` does not carry.
    """
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(payload["spec"])
    seed = int(payload.get("seed", 0))

    system = None
    if payload.get("system") is not None:
        from repro.api.builder import build_system
        from repro.api.spec import SystemSpec
        system = build_system(SystemSpec.from_dict(payload["system"]))

    runner = ScenarioRunner(spec, seed=seed, system=system)
    # run_report() == RunReport.from_scenario(runner.run()) plus the
    # telemetry payload when the system was built with telemetry=True.
    return runner.run_report().to_dict()


def run_experiment_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one experiment from :data:`repro.experiments.ALL_EXPERIMENTS`
    (payload: ``{"experiment": "E1", "kwargs": {...}}``) and return its
    :class:`~repro.api.report.RunReport` dict with the wall time stamped."""
    from repro.experiments.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import run_experiment

    key = payload["experiment"]
    try:
        fn = ALL_EXPERIMENTS[key]
    except KeyError:
        known = ", ".join(ALL_EXPERIMENTS)
        raise KeyError(f"unknown experiment {key!r}; known: {known}") from None
    return run_experiment(fn, **dict(payload.get("kwargs") or {})).to_dict()

