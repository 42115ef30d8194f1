"""Gating replay of the committed fuzz corpus (``tests/corpus/*.json``).

Every artifact in the corpus is a fuzzer-minimized scenario (see
FUZZING.md): the fuzzer (``python -m repro fuzz``; artifacts name it
``"tool": "repro-fuzz"``) found it under a deliberately tightened
oracle, auto-shrunk it, and a human promoted it here because the shape is
worth pinning.  The gate replays each spec with its embedded seed (the
``"scheduler"`` key the older artifacts carry is ignored) and asserts the
*real* invariants hold — the corpus is a regression library, so a spec that
starts failing means a behavior regression, not a flaky test.

Adding an entry: copy a ``--findings-dir`` artifact in verbatim (the
``source`` block records provenance) after checking it replays green with
``python -m repro scenario --spec <file>``.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import load_spec_file

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS_FILES, "tests/corpus/ lost all its artifacts"


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_artifact_shape(path):
    data = json.loads(path.read_text())
    assert data.get("schema") == 1
    assert "spec" in data and "seed" in data
    source = data.get("source", {})
    assert source.get("tool") == "repro-fuzz"
    assert "signature" in source and "fuzz_seed" in source


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_replays_green(path):
    spec, seed = load_spec_file(str(path))
    report = ScenarioRunner(spec, seed=seed).run()
    failed = [name for phase in report.phases
              for name, holds in phase.invariants.items() if not holds]
    assert report.passed, (
        f"corpus regression in {path.name}: invariants failed {failed}, "
        f"stabilized={report.stabilized}")
