"""Regression oracle for hot-path work: golden byte-identity.

The reports of E1, E11 (two seeds) and E12 (two seeds) must match
``tests/golden/*.json`` byte for byte.  The golden files were generated by
the *pre-optimization* engine, so any drift in RNG draw order, event order,
stats accounting or report serialization introduced by hot-path work fails
these tests.  (Heap-vs-wheel event-log parity, 5 000 nodes included, is
``tests/test_engine_scale.py``.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.experiments import (
    e1_topology,
    e11_sharded_scaling,
    e12_adversarial_scenarios,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def canonical_json(report) -> str:
    """The byte-comparable form: wall time is the one legitimately
    non-deterministic field, so it is nulled before serializing."""
    report.wall_seconds = None
    return report.to_json()


def load_golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.json").read_text().strip()


class TestGoldenReports:
    """Byte-identical pre/post-optimization reports (the tentpole guarantee)."""

    def test_e1_default(self):
        assert canonical_json(e1_topology()) == load_golden("e1_default")

    @pytest.mark.parametrize("seed", [7, 21])
    def test_e11_two_seeds(self, seed):
        report = e11_sharded_scaling(seed=seed)
        assert canonical_json(report) == load_golden(f"e11_seed{seed}")

    @pytest.mark.parametrize("seed", [5, 9])
    def test_e12_two_seeds(self, seed):
        report = e12_adversarial_scenarios(seed=seed)
        assert canonical_json(report) == load_golden(f"e12_seed{seed}")

    def test_goldens_are_valid_reports(self):
        """The golden fixtures themselves must stay well-formed (guards
        against accidental regeneration with a broken serializer)."""
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            data = json.loads(path.read_text())
            assert data["wall_seconds"] is None
            assert data["passed"] is True, f"{path.name} records failing claims"
            assert data["claims"], f"{path.name} has no claims"
