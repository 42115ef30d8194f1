"""Every name under ``src/repro`` has a reader (ROADMAP item 7's sweep, kept swept).

An ``ast`` walk: every module-level function/class and every public method
must be *named* — a ``Name``, an attribute, an imported alias or a keyword —
under ``src/``, ``bench/``, ``scripts/`` or ``examples/``
outside its own ``def``/``class`` line, ``__all__`` strings and bare ``__init__``
re-exports.  Name-based on purpose: a false "has a reader" is acceptable, a
false "dead" is not.  Tests are not readers.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TASK = "reached by its 'module:function' string through exec.backend.resolve_task_fn"

#: Names with no by-name reader that stay, each with the reader it does have.
KEPT = {
    "run_scenario_task": _TASK, "run_experiment_task": _TASK, "run_fuzz_case": _TASK,
    "echo": _TASK + " — the exec tests' trivial task",
    "misbehave": _TASK + " — the exec tests' crash/hang/garbage worker",
    "topic_assignment": "cluster inspection: which shard owns which topic (tests/test_cluster.py)",
    "shard_topic_counts": "cluster inspection: per-shard topic load after a rebalance",
    "label_from_r": "the inverse of r (Section 2.1) in repro.core's label algebra; "
                    "the closed-form shortcut reference in tests/test_properties.py reads it",
    "check_invariants": "structural + Merkle oracle of the trie, asserted by four test files",
}


def _checked(tree: ast.Module):
    """Module-level functions/classes and their public, non-``on_*`` methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith(("_", "on_")):
                    yield item


def _scan():
    """``(defined, reads)``: where each checked name is defined, and how often
    any identifier is read anywhere in the reader directories."""
    defined, reads = {}, Counter()
    for top in ("src", "bench", "scripts", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if top == "src":
                for node in _checked(tree):
                    defined.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
            reexports = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    reads[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    reads[node.attr] += 1
                elif isinstance(node, ast.keyword) and node.arg:
                    reads[node.arg] += 1
                elif isinstance(node, ast.Import) or (
                        isinstance(node, ast.ImportFrom) and not reexports):
                    reads.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return defined, reads


def test_every_public_name_has_a_reader():
    defined, reads = _scan()
    dead = {name: where for name, where in defined.items() if not reads[name]}
    unexplained = {name: where for name, where in dead.items() if name not in KEPT}
    assert not unexplained, (
        "defined under src/repro but read nowhere in src/ bench/ scripts/ "
        f"examples/ — delete it or add it to KEPT with its reader: {unexplained}")
    stale = sorted(set(KEPT) - set(dead))
    assert not stale, f"KEPT entries that are gone or now have a by-name reader: {stale}"
