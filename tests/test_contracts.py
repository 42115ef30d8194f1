"""The source disciplines behind the byte-identical reports.

Convergence, closure and delivery are reproduced through reports that a seed
determines byte for byte (the goldens and the corpus pin them).  These tests
hold the disciplines those bytes rest on:

* reports read no wall clock, OS entropy, uuid or module-level ``random``
  draw, and every ``random.Random`` is seeded — the payload set below is
  built with all of them raising.  The three deliberate clock reads are off
  that path: ``run_experiment``'s ``wall_seconds``, the fuzz campaign's
  ``budget_seconds`` deadline and the engine's opt-in ``_profile``;
* no output order comes from a set or dict of strings — the same payloads
  are byte-identical under three ``PYTHONHASHSEED`` values;
* every ``repro.sim`` class is slotted through its whole MRO;
* every spec, config and report class serializes through the one artifact
  codec (``repro.artifact``): an instance of each re-encodes to the same
  bytes, a decoder names an unknown key instead of dropping it, a nested
  dict is rebuilt from the field's type, and no other module writes JSON
  or hand-writes the codec's methods;
* every spec and config field rejects a value of the wrong type;
* an option retired into a constant is refused by name, not ignored;
* the engine's hot loops build no container per event;
* the message vocabulary of ``core/messages.py`` is exactly what the
  subscriber's and the supervisor's handler tables dispatch
  (``protocol_schema()``), and every handler's docstring cites the paper.

Run as a script, this file prints the payload set (the subprocesses of the
hash-seed test do exactly that).
"""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

import repro.sim
from repro.api import RunReport, SystemSpec
from repro.core import messages as msg
from repro.core.config import ProtocolParams
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor
from repro.exec.backend import TaskFailure, TaskSpec
from repro.exec.campaign import CampaignReport
from repro.exec.sweep import SweepSpec
from repro.fuzz.campaign import FuzzCampaign, FuzzConfig, FuzzFinding, FuzzReport
from repro.fuzz.generator import GeneratorLimits
from repro.fuzz.oracle import OracleSpec, Verdict
from repro.fuzz.shrink import ShrinkOutcome
from repro.scenarios.runner import PhaseReport, ScenarioReport, ScenarioRunner
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec
from repro.sim import engine
from repro.sim.engine import SimulatorConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def payloads() -> str:
    """Every kind of serialized report a seed determines: a scenario per
    facade (K = 1 and K = 2, four topics, loss, churn and publications), its
    :class:`RunReport`, and one fuzz iteration."""
    out = []
    churn = PhaseSpec(name="churn", rounds=6.0, settle_rounds=200.0, joins=1, leaves=1,
                      crashes=1, publications=4, loss_rate=0.1)
    for facade, shards in (("single", 1), ("sharded", 2)):
        spec = ScenarioSpec(name=f"contract-{facade}", description="", facade=facade,
                            shards=shards, subscribers=8, phases=(churn,),
                            topics=("alpha", "beta", "gamma", "delta"))
        report = ScenarioRunner(spec, seed=5).run()
        out += [report.to_json(), RunReport.from_scenario(report).to_json()]
    limits = GeneratorLimits(max_phases=1, min_subscribers=6, max_subscribers=8,
                             min_rounds=6.0, max_rounds=8.0, settle_rounds=150.0)
    out.append(FuzzCampaign(FuzzConfig(seed=3, budget_iters=1, limits=limits)).run().to_json())
    return "\n".join(out)


AMBIENT = ([(time, name) for name in ("time", "time_ns", "perf_counter", "perf_counter_ns",
                                      "monotonic", "monotonic_ns")]
           + [(os, "urandom"), (uuid, "uuid1"), (uuid, "uuid4")]
           + [(random, name) for name in ("random", "uniform", "randint", "randrange",
                                          "choice", "choices", "sample", "shuffle", "gauss",
                                          "getrandbits", "seed")])


def test_reports_read_no_clock_entropy_or_global_random(monkeypatch):
    reseed = random.Random.seed

    def seeded_only(self, a=None, version=2):
        if a is None:
            raise AssertionError("an unseeded random.Random() on a report path")
        reseed(self, a, version)

    with monkeypatch.context() as patch:
        for module, name in AMBIENT:
            original = getattr(module, name)

            def forbidden(*args, _name=f"{module.__name__}.{name}", **kwargs):
                raise AssertionError(f"{_name}() on a report path")
            patch.setattr(module, name, forbidden)
            # a ``from time import perf_counter`` is a module global of its own
            for module_name, loaded in list(sys.modules.items()):
                if module_name.startswith("repro"):
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            patch.setattr(loaded, attr, forbidden)
        patch.setattr(random.Random, "seed", seeded_only)
        payloads()


def test_reports_are_byte_identical_under_any_hash_seed():
    runs = [subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed})
            for seed in ("0", "1", "2")]
    outputs = [run.communicate(timeout=120) for run in runs]
    assert all(run.returncode == 0 for run in runs), outputs[0][1][-2000:]
    assert len({out for out, _ in outputs}) == 1, "payload bytes differ across PYTHONHASHSEED 0-2"


SIM_CLASSES = [value for info in pkgutil.walk_packages(repro.sim.__path__, "repro.sim.")
               for value in vars(importlib.import_module(info.name)).values()
               if isinstance(value, type) and value.__module__ == info.name]


@pytest.mark.parametrize("cls", SIM_CLASSES, ids=lambda cls: cls.__qualname__)
def test_every_sim_class_is_slotted_through_its_mro(cls):
    assert cls.__dictoffset__ == 0, f"{cls.__module__}.{cls.__qualname__} instances have a __dict__"


#: One valid, non-default value per field: a new field fails until it has one.
SPEC_VALUES = {"topology": "sharded", "shards": 2, "seed": 7,
               "telemetry": True, "params": ProtocolParams(enable_flooding=False),
               "sim": SimulatorConfig(max_delay=2.0), "max_rounds": 900,
               "check_every_rounds": 3}
SIM_VALUES = {"seed": 7, "min_delay": 0.2, "max_delay": 2.0, "timeout_period": 1.5,
              "timeout_jitter": 0.1, "detection_lag": 1.0, "keep_trace_events": True}
#: One wrong-typed value per field; each must raise where the spec is built.
SPEC_WRONG = {"topology": 1, "shards": 2.0, "seed": "7",
              "telemetry": "false", "params": "x", "sim": "x", "max_rounds": 9.5,
              "check_every_rounds": None}
SIM_WRONG = {"seed": True, "min_delay": "0.2", "max_delay": "2", "timeout_period": None,
             "timeout_jitter": "0", "detection_lag": "1", "keep_trace_events": "false"}


@pytest.mark.parametrize("cls, table", [(SystemSpec, SPEC_VALUES), (SystemSpec, SPEC_WRONG),
                                        (SimulatorConfig, SIM_VALUES),
                                        (SimulatorConfig, SIM_WRONG)])
def test_spec_tables_cover_every_field(cls, table):
    assert set(table) == {field.name for field in dataclasses.fields(cls)}


@pytest.mark.parametrize("name", sorted(SPEC_VALUES))
def test_every_system_spec_field_checks_its_type(name):
    with pytest.raises((TypeError, ValueError)):
        SystemSpec(**{name: SPEC_WRONG[name]})


@pytest.mark.parametrize("name", sorted(SIM_VALUES))
def test_every_simulator_config_field_round_trips_and_checks_its_type(name):
    spec = SystemSpec(sim=SimulatorConfig(**{name: SIM_VALUES[name]}))
    assert getattr(SystemSpec.from_json(spec.to_json()).sim_config(), name) == SIM_VALUES[name]
    with pytest.raises((TypeError, ValueError)):
        SimulatorConfig(**{name: SIM_WRONG[name]})


SYSTEM = SystemSpec(**SPEC_VALUES)  # every field away from its default
PARTITION = PartitionSpec(name="split", fraction=0.3, heal_after_rounds=4.0)
PHASE = PhaseSpec(name="storm", rounds=6.0, joins=1, loss_rate=0.1, partition=PARTITION)
SCENARIO = ScenarioSpec(name="s", description="d", facade="sharded", shards=2, subscribers=8,
                        topics=("a", "b"), phases=(PHASE,))
SWEEP = SweepSpec(name="w", base=SYSTEM, n_nodes=(4,), shards=(1, 2), scenarios=(None,),
                  loss_rates=(0.1,), seeds=2)
LIMITS = GeneratorLimits(max_phases=1, min_subscribers=6)
ORACLE = OracleSpec(max_relegitimize_rounds=5.0)
FUZZ = FuzzConfig(seed=3, budget_iters=2, limits=LIMITS, oracle=ORACLE)
PHASE_REPORT = PhaseReport(name="storm", disruptions=["joins=1"], relegitimized=True,
                           drops={"loss": 2}, invariants={"relegitimized": True})
SCENARIO_REPORT = ScenarioReport(scenario="s", seed=5, facade="sharded", shards=2,
                                 subscribers_initial=8, topics=["a"], stabilized=True,
                                 phases=[PHASE_REPORT])
RUN_REPORT = RunReport(name="E1", title="t", headers=["a", "b"], rows=[(1, "x")],
                       claims={"holds": True}, metadata={"pair": (1, 2)},
                       scenario=SCENARIO_REPORT.to_dict(), telemetry={"runs": 1})
FINDING = FuzzFinding(finding_id="f", signature=("invariant:x",), kind="oracle", iteration=1,
                      spec=SCENARIO.to_dict(), seed=9, reasons=("invariant:x@storm",))

#: One instance of every artifact class.
ARTIFACTS = [SYSTEM, SCENARIO, PHASE, PARTITION, SWEEP, SWEEP.expand()[1], FUZZ, LIMITS, ORACLE,
             Verdict(failed=True, reasons=("r",), signature=("s",)),
             TaskSpec(task_id="t", fn="exec_tasks:echo", payload={"a": [1]}),
             TaskFailure(task_id="t", fn="m:f", kind="crash", detail="KeyError: 'x'"),
             RUN_REPORT, SCENARIO_REPORT, PHASE_REPORT,
             CampaignReport(name="w", master_seed=7, sweep=SWEEP.to_dict(), telemetry={"runs": 1},
                            tasks=[{**SWEEP.expand()[0].to_dict(),
                                    "report": RUN_REPORT.to_dict()}]),
             FINDING, ShrinkOutcome(spec=SCENARIO, evals=3),
             FuzzReport(config=FUZZ, iterations=2, findings=[FINDING])]


def _name(artifact):
    return type(artifact).__name__


def test_every_artifact_class_has_an_instance_here():
    from repro.artifact import Artifact
    assert {type(a) for a in ARTIFACTS} == set(Artifact.__subclasses__())


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=_name)
def test_every_artifact_round_trips_to_the_same_bytes(artifact):
    text = artifact.to_json()
    assert json.loads(text) == artifact.to_dict()
    again = type(artifact).from_json(text)
    assert again.to_json() == text and again.to_json(indent=2) == artifact.to_json(indent=2)
    if type(artifact).__dataclass_params__.frozen:
        assert again == artifact


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=_name)
def test_an_unknown_key_is_rejected_by_name(artifact):
    with pytest.raises(TypeError, match="titel"):
        type(artifact).from_dict({**artifact.to_dict(), "titel": "x"})


def test_a_partition_given_as_a_dict_is_rebuilt():
    phase = PhaseSpec(name="p", partition={"fraction": 0.3})
    assert phase.partition == PartitionSpec(fraction=0.3)
    assert "partition(0.3, heal@10r)" in phase.disruptions


def test_phases_given_as_dicts_are_rebuilt():
    spec = ScenarioSpec(name="s", description="", phases=[{"name": "p", "joins": 1}])
    assert spec.phases == (PhaseSpec(name="p", joins=1),)


@pytest.mark.parametrize("field, build", [pytest.param(field, build, id=field) for field, build in (
    ("PhaseSpec.partition", lambda: PhaseSpec(name="p", partition="cut")),
    ("ScenarioSpec.phases", lambda: ScenarioSpec(name="s", description="", phases=("p",))),
    ("SweepSpec.base", lambda: SweepSpec(name="w", base=3)),
    ("FuzzConfig.oracle", lambda: FuzzConfig(oracle=[5.0])))])
def test_a_nested_value_of_another_type_is_rejected_by_name(field, build):
    with pytest.raises(ValueError, match=field):
        build()


def test_a_verdict_reads_failed_only_as_a_bool():
    with pytest.raises(ValueError, match="failed"):
        Verdict.from_dict({"failed": "no"})


#: The codec's methods; a dataclass hand-writes none of them, and no class
#: outside the codec writes the last three.
CODEC_METHODS = ("to_dict", "from_dict", "to_json", "from_json", "with_overrides")


def test_one_module_writes_json_and_no_class_hand_writes_the_codec():
    writers, hand_written = set(), []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.relative_to(SRC).as_posix()
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "json"}
        functions = {alias.asname or alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "json"
                     for alias in node.names if alias.name in ("dump", "dumps")}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    isinstance(func, ast.Name) and func.id in functions
                    or isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                    and isinstance(func.value, ast.Name) and func.value.id in aliases):
                writers.add(module)
            if isinstance(node, ast.ClassDef) and module != "repro/artifact.py":
                dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                forbidden = CODEC_METHODS if dataclass else CODEC_METHODS[2:]
                hand_written += [f"{module}:{node.name}.{item.name}" for item in node.body
                                 if isinstance(item, ast.FunctionDef) and item.name in forbidden]
    assert writers == {"repro/artifact.py"}, "json.dump(s) outside the artifact codec"
    assert hand_written == [], "codec methods written by hand"


def _params(payload):
    return ProtocolParams(**payload)


#: Options that became constants: where a spec carrying one is read, the key
#: and its old default.
RETIRED = [(_params, "request_probability_exponent_cap", 30),
           (_params, "minimal_request_probability", 0.5),
           (SystemSpec.from_dict, "virtual_nodes", 64),
           (FuzzConfig.from_dict, "mutate_probability", 0.6),
           (FuzzConfig.from_dict, "pool_cap", 64),
           (FuzzConfig.from_dict, "batch_size", 8),
           *((GeneratorLimits.from_dict, key, value) for key, value in (
               ("max_topics", 2), ("max_shards", 3), ("max_crash_fraction", 0.34),
               ("max_loss_rate", 0.18), ("max_duplicate_rate", 0.12),
               ("delay_spike_factors", [2.0, 3.0, 5.0]), ("sharded_probability", 0.4),
               ("crash_supervisor_probability", 0.25)))]


@pytest.mark.parametrize("read, key, value", RETIRED, ids=[key for _, key, _ in RETIRED])
def test_a_retired_option_is_rejected_by_name(read, key, value):
    with pytest.raises(TypeError, match=key):
        read({key: value})


def test_engine_hot_loops_build_no_container_per_event():
    """In ``_send_fast`` and ``_drain`` a dict/list/set display or a
    comprehension may sit only in an ``except`` handler (first sight of a
    key, one list per wheel bucket) or in an annotated setup assignment."""
    tree = ast.parse(Path(engine.__file__).read_text())
    hot = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
           and node.name in ("_send_fast", "_drain")]
    assert len(hot) == 2
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)

    def allocations(node, exempt):
        for child in ast.iter_child_nodes(node):
            if child in exempt or isinstance(child, ast.ExceptHandler):
                continue
            if isinstance(child, displays) and not isinstance(getattr(child, "ctx", None),
                                                               ast.Store):
                yield child.lineno
            yield from allocations(child, exempt)

    found = [f"{func.name}:{line}" for func in hot for line in allocations(
        func, {stmt for stmt in func.body if isinstance(stmt, ast.AnnAssign)})]
    assert found == [], "per-event container allocations"


def test_the_message_vocabulary_is_the_handler_tables():
    schema = msg.protocol_schema()
    actions = {value for name, value in vars(msg).items()
               if name.isupper() and isinstance(value, str) and not name.startswith("FLAG_")}
    assert len(actions) == 13
    assert actions == set(schema["subscriber"]) | set(schema["supervisor"])
    assert msg.SUPERVISOR_REQUEST_ACTIONS == set(schema["supervisor"])
    assert schema["supervisor"] == dict.fromkeys(msg.SUPERVISOR_REQUEST_ACTIONS, ("node",))
    assert schema["subscriber"][msg.SET_DATA] == ("pred", "label", "succ")


@pytest.mark.parametrize("role, cls", [("subscriber", Subscriber), ("supervisor", Supervisor)])
def test_every_handler_cites_the_paper(role, cls):
    uncited = [action for action in msg.protocol_schema()[role]
               if not re.search(r"\b(Algorithms?|Section|Theorem) \d",
                                cls._action_handlers[action].__doc__ or "")]
    assert uncited == []


if __name__ == "__main__":
    print(payloads())
