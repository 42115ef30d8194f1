"""Smoke test of the benchmark harness (``python -m pytest bench -q``).

Not part of the tier-1 ``testpaths``: it checks the harness, not the
program.  Every workload runs at ``--scale 0.1``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (bench/run.py; puts src/ on sys.path)
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SCALE = 0.1
SEED = 3
NAMES = [w.name for w in workloads.WORKLOADS]
BUDGETED = [w.name for w in workloads.WORKLOADS if w.has_budget]


def test_declaration_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == NAMES
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = NAMES + end_to_end + per_layer
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert "setup_s" in end_to_end


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_scaled_run_reports_exactly_the_declared_metrics(name, trace):
    doc = run.run_workload(name, seed=SEED, seconds=1, trace=trace, scale=SCALE)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert doc["problems"] == []
    assert doc["failed_share"] == 0
    assert doc["result"]["correct"] and doc["result"]["attempted"] >= 1
    assert doc["scale"] == SCALE
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_the_same_digest(name):
    wl = workloads.BY_NAME[name]
    size = wl.sizes(SCALE)
    first = run.measure_repeat(wl, SEED, size)
    second = run.measure_repeat(wl, SEED, size)
    other = run.measure_repeat(wl, SEED + 1, size)
    assert first["digest"] == second["digest"] != other["digest"]


@pytest.mark.parametrize("name", BUDGETED)
def test_starved_budget_fails_every_op_instead_of_crashing(name):
    doc = run.run_workload(name, seed=SEED, seconds=1, scale=SCALE,
                           max_rounds=1)
    assert doc["failed_share"] == 1
    assert not doc["result"]["correct"]
