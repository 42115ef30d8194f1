"""Every name under ``src/repro`` has a reader (ROADMAP item 7's sweep, kept swept),
and every config field has a second value in use.

An ``ast`` walk: every module-level function/class and every public method
must be *named* — a ``Name``, an attribute, an imported alias or a keyword —
under ``src/``, ``bench/``, ``scripts/`` or ``examples/``
outside its own ``def``/``class`` line, ``__all__`` strings and bare ``__init__``
re-exports.  Name-based on purpose: a false "has a reader" is acceptable, a
false "dead" is not.  Tests are not readers.

A config field with one value in use is a constant with extra steps: each
field names the file under ``src/``, ``bench/`` or ``scripts/`` that sets it
to something other than its default, or says why it stays.
"""

import ast
import dataclasses
import functools
from collections import Counter
from pathlib import Path

from repro.api.spec import SystemSpec
from repro.core.config import ProtocolParams
from repro.exec.sweep import SweepSpec
from repro.fuzz.campaign import FuzzConfig
from repro.fuzz.generator import GeneratorLimits
from repro.fuzz.oracle import OracleSpec
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec
from repro.sim.engine import SimulatorConfig
from repro.workloads.initial_states import AdversarialConfig

ROOT = Path(__file__).resolve().parents[1]

_TASK = "reached by its 'module:function' string through exec.backend.resolve_task_fn"

#: Names with no by-name reader that stay, each with the reader it does have.
KEPT = {
    "run_scenario_task": _TASK, "run_experiment_task": _TASK,
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


_RUNG = "KEPT: a rung of ROADMAP item 9's ablation ladder (the switch is the ablation)"
_ASYNC = "KEPT: the paper's asynchronous model (delays, timeouts, failure detection)"
_EXPECT = "KEPT: a phase's invariant switch, carried by every phase in tests/corpus/"
_SRC = "src/repro/"

#: ``Class.field`` -> the non-test file that passes the field as a keyword,
#: with a value other than its default, to the class, ``replace`` or
#: ``with_overrides`` — or ``KEPT: <why it stays with one value>``.
CONFIG_FIELDS = {
    "ProtocolParams.integrate_unknown_requesters": _SRC + "experiments/experiments.py",
    "ProtocolParams.enable_minimal_request": _SRC + "experiments/experiments.py",
    "ProtocolParams.enable_flooding": _SRC + "experiments/experiments.py",
    "ProtocolParams.enable_anti_entropy": _RUNG,
    "ProtocolParams.anti_entropy_probability":
        _RUNG + "; it also gates an RNG draw per Timeout that every digest counts",
    "ProtocolParams.publication_key_bits": "KEPT: the paper's m, the length of h̄_m's keys",
    "ProtocolParams.shortcut_maintenance": _RUNG,
    "ProtocolParams.default_topic":
        "KEPT: bench/workloads.py and the facade read it as the single-topic name",
    "SimulatorConfig.seed": _SRC + "core/facade.py",
    "SimulatorConfig.min_delay": _ASYNC,
    "SimulatorConfig.max_delay": _ASYNC,
    "SimulatorConfig.timeout_period": _ASYNC,
    "SimulatorConfig.timeout_jitter": _ASYNC,
    "SimulatorConfig.detection_lag": _ASYNC + "; item 9's slow-detector rung",
    "SimulatorConfig.keep_trace_events": _SRC + "experiments/experiments.py",
    "SystemSpec.topology": _SRC + "experiments/experiments.py",
    "SystemSpec.shards": _SRC + "experiments/experiments.py",
    "SystemSpec.seed": _SRC + "experiments/experiments.py",
    "SystemSpec.telemetry": _SRC + "cli.py",
    "SystemSpec.params": _SRC + "experiments/experiments.py",
    "SystemSpec.sim": _SRC + "experiments/experiments.py",
    "SystemSpec.max_rounds": _SRC + "scenarios/spec.py",
    "SystemSpec.check_every_rounds":
        "KEPT: one value in use, but bench/workloads.py reads it as the oracle's "
        "cadence; it goes with the next change to bench/",
    "ScenarioSpec.name": _SRC + "fuzz/generator.py",
    "ScenarioSpec.description": _SRC + "fuzz/generator.py",
    "ScenarioSpec.facade": _SRC + "fuzz/generator.py",
    "ScenarioSpec.shards": _SRC + "fuzz/generator.py",
    "ScenarioSpec.subscribers": _SRC + "fuzz/generator.py",
    "ScenarioSpec.topics": _SRC + "fuzz/generator.py",
    "ScenarioSpec.phases": _SRC + "fuzz/generator.py",
    "ScenarioSpec.max_stabilize_rounds": "bench/workloads.py",
    "PhaseSpec.name": _SRC + "scenarios/library.py",
    "PhaseSpec.rounds": _SRC + "scenarios/library.py",
    "PhaseSpec.settle_rounds": _SRC + "fuzz/generator.py",
    "PhaseSpec.joins": _SRC + "scenarios/library.py",
    "PhaseSpec.leaves": _SRC + "scenarios/library.py",
    "PhaseSpec.crashes": _SRC + "scenarios/library.py",
    "PhaseSpec.crash_fraction": _SRC + "scenarios/library.py",
    "PhaseSpec.publications": _SRC + "scenarios/library.py",
    "PhaseSpec.loss_rate": _SRC + "scenarios/library.py",
    "PhaseSpec.duplicate_rate": _SRC + "scenarios/library.py",
    "PhaseSpec.delay_spike_factor": _SRC + "scenarios/library.py",
    "PhaseSpec.partition": _SRC + "scenarios/library.py",
    "PhaseSpec.crash_supervisor": _SRC + "scenarios/library.py",
    "PhaseSpec.expect_relegitimize": _EXPECT,
    "PhaseSpec.expect_delivery": _EXPECT,
    "PartitionSpec.name": _SRC + "scenarios/library.py",
    "PartitionSpec.fraction": _SRC + "scenarios/library.py",
    "PartitionSpec.heal_after_rounds": _SRC + "scenarios/library.py",
    "AdversarialConfig.n": _SRC + "experiments/experiments.py",
    "AdversarialConfig.seed": _SRC + "experiments/experiments.py",
    "AdversarialConfig.fraction_unlabeled": _SRC + "experiments/experiments.py",
    "AdversarialConfig.fraction_random_labels": _SRC + "experiments/experiments.py",
    "AdversarialConfig.database_mode": _SRC + "experiments/experiments.py",
    "AdversarialConfig.components": _SRC + "experiments/experiments.py",
    "AdversarialConfig.corrupted_messages":
        "KEPT: the amount of channel garbage in Theorem 8's arbitrary start; "
        "examples/self_healing_demo.py raises it",
    "SweepSpec.name": _SRC + "exec/demo.py",
    "SweepSpec.base": _SRC + "exec/demo.py",
    "SweepSpec.n_nodes": _SRC + "exec/demo.py",
    "SweepSpec.shards": _SRC + "exec/demo.py",
    "SweepSpec.scenarios": _SRC + "exec/demo.py",
    "SweepSpec.loss_rates": _SRC + "exec/demo.py",
    "SweepSpec.seeds": _SRC + "exec/demo.py",
    "SweepSpec.publications": _SRC + "exec/demo.py",
    "SweepSpec.joins": _SRC + "exec/demo.py",
    "SweepSpec.crashes": _SRC + "exec/demo.py",
    "FuzzConfig.seed": _SRC + "cli.py",
    "FuzzConfig.budget_iters": _SRC + "cli.py",
    "FuzzConfig.max_findings": _SRC + "cli.py",
    "FuzzConfig.shrink_budget": _SRC + "cli.py",
    "FuzzConfig.limits": _SRC + "cli.py",
    "FuzzConfig.oracle": _SRC + "cli.py",
    "GeneratorLimits.max_phases": _SRC + "fuzz/generator.py",
    "GeneratorLimits.min_subscribers": _SRC + "fuzz/generator.py",
    "GeneratorLimits.max_subscribers": _SRC + "fuzz/generator.py",
    "GeneratorLimits.min_rounds": _SRC + "fuzz/generator.py",
    "GeneratorLimits.max_rounds": _SRC + "fuzz/generator.py",
    "GeneratorLimits.settle_rounds": _SRC + "fuzz/generator.py",
    "GeneratorLimits.max_churn_ops": _SRC + "fuzz/generator.py",
    "GeneratorLimits.max_publications": _SRC + "fuzz/generator.py",
    "OracleSpec.max_relegitimize_rounds": _SRC + "cli.py",
    "OracleSpec.max_stabilize_rounds": _SRC + "cli.py",
}

CONFIG_CLASSES = (ProtocolParams, SimulatorConfig, SystemSpec, ScenarioSpec, PhaseSpec,
                  PartitionSpec, AdversarialConfig, SweepSpec, FuzzConfig, GeneratorLimits,
                  OracleSpec)


@functools.lru_cache(maxsize=None)
def _calls(path: Path) -> list:
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)]


def _sets_a_second_value(path: Path, cls: type, field: dataclasses.Field) -> bool:
    """Whether ``path`` passes ``field`` as a keyword to ``cls``, ``replace``
    or ``with_overrides`` with anything but a literal equal to its default."""
    callees = {cls.__name__, "replace", "with_overrides"}
    for node in _calls(path):
        callee = node.func.id if isinstance(node.func, ast.Name) else getattr(
            node.func, "attr", None)
        if callee not in callees:
            continue
        for keyword in node.keywords:
            if keyword.arg == field.name and not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value == field.default):
                return True
    return False


def test_every_config_field_has_a_second_value_or_a_reason():
    fields = {f"{cls.__name__}.{field.name}": (cls, field)
              for cls in CONFIG_CLASSES for field in dataclasses.fields(cls)}
    assert set(CONFIG_FIELDS) == set(fields), (
        "a config field needs a CONFIG_FIELDS entry (the file that sets a second "
        f"value, or KEPT: why it exists): {sorted(set(fields) ^ set(CONFIG_FIELDS))}")
    unset = []
    for name, where in CONFIG_FIELDS.items():
        if where.startswith("KEPT: "):
            continue
        path = ROOT / where
        assert where.split("/")[0] in ("src", "bench", "scripts") and \
            not path.name.startswith("test_"), f"{name}: {where} is not a non-test file"
        if not _sets_a_second_value(path, *fields[name]):
            unset.append(f"{name} (not set in {where})")
    assert not unset, f"config fields with no second value where the table says: {unset}"
