"""Shared helper for the benchmark harness.

Every benchmark runs one experiment from :mod:`repro.experiments.experiments`
exactly once under pytest-benchmark (the interesting output is the printed
table reproducing the paper's figure/claim, not the wall time, but the timing
is recorded as a bonus).  Experiments return the unified API's
:class:`~repro.api.report.RunReport`; each benchmark asserts that the paper
claims it reproduces actually hold, so ``pytest benchmarks/ --benchmark-only``
doubles as an end-to-end validation of the reproduction.
"""

from __future__ import annotations

import pytest

from repro.api.report import RunReport
from repro.experiments.report import render_result


def run_and_report(benchmark, experiment_fn, *args, **kwargs) -> RunReport:
    """Run ``experiment_fn`` once under the benchmark fixture and print its table."""
    result = benchmark.pedantic(lambda: experiment_fn(*args, **kwargs),
                                rounds=1, iterations=1)
    print()
    print(render_result(result))
    assert result.passed, (
        f"{result.name}: some reproduced claims failed: "
        f"{[c for c, ok in result.claims.items() if not ok]}")
    return result


@pytest.fixture()
def report(benchmark):
    def _run(experiment_fn, *args, **kwargs):
        return run_and_report(benchmark, experiment_fn, *args, **kwargs)
    return _run
