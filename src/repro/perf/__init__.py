"""Persistent performance-regression harness (the ``BENCH_*.json`` trail).

The package turns "is the simulator getting faster or slower?" into a
recorded, comparable artifact:

* :mod:`repro.perf.cases` — the fixed benchmark matrix, every system built
  through the declarative :class:`~repro.api.spec.SystemSpec` API: the
  engine-core timeout-storm runs (2k/5k nodes, heap vs wheel), the facade
  workloads (single vs sharded-4), and the E11/E12 experiment/scenario
  drivers;
* :mod:`repro.perf.suite` — the runner: executes each case in a fresh
  subprocess (clean interpreter state, honest per-case peak RSS), records
  wall times / events per second / peak RSS, writes ``BENCH_<n>.json`` at
  the repo root and compares it against the previous ``BENCH_*.json`` with
  a configurable regression threshold.

``scripts/bench_suite.py`` is the command-line front door; CI runs it with
``--quick`` on every push and fails on >20 % wall-time regressions against
the committed baseline.
"""

from repro.perf.cases import BENCH_CASES, QUICK_CASES, BenchCase, get_case
from repro.perf.suite import (
    CURRENT_BENCH_ID,
    compare_benchmarks,
    find_previous_bench,
    load_bench,
    run_suite,
)

__all__ = [
    "BENCH_CASES",
    "QUICK_CASES",
    "BenchCase",
    "get_case",
    "CURRENT_BENCH_ID",
    "compare_benchmarks",
    "find_previous_bench",
    "load_bench",
    "run_suite",
]
