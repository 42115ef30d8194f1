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
* every spec and config field survives the JSON round trip and rejects a
  value of the wrong type;
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
from repro.fuzz.campaign import FuzzCampaign, FuzzConfig
from repro.fuzz.generator import GeneratorLimits
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import PhaseSpec, ScenarioSpec
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
def test_every_system_spec_field_round_trips_and_checks_its_type(name):
    spec = SystemSpec(**{"topology": "sharded", name: SPEC_VALUES[name]})
    assert SystemSpec.from_json(spec.to_json()) == spec
    assert getattr(SystemSpec.from_dict(spec.to_dict()), name) == SPEC_VALUES[name]
    with pytest.raises((TypeError, ValueError)):
        SystemSpec(**{name: SPEC_WRONG[name]})


@pytest.mark.parametrize("name", sorted(SIM_VALUES))
def test_every_simulator_config_field_round_trips_and_checks_its_type(name):
    spec = SystemSpec(sim=SimulatorConfig(**{name: SIM_VALUES[name]}))
    assert getattr(SystemSpec.from_json(spec.to_json()).sim_config(), name) == SIM_VALUES[name]
    with pytest.raises((TypeError, ValueError)):
        SimulatorConfig(**{name: SIM_WRONG[name]})


def _params(payload):
    return ProtocolParams(**payload)


#: Options that became constants: where a spec carrying one is read, the key
#: and its old default.
RETIRED = [(_params, "request_probability_exponent_cap", 30),
           (_params, "minimal_request_probability", 0.5),
           (SystemSpec.from_dict, "virtual_nodes", 64),
           (FuzzConfig.from_dict, "mutate_probability", 0.6),
           (FuzzConfig.from_dict, "pool_cap", 64),
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
    """In ``_send_fast`` and ``_run_blocks`` a dict/list/set display or a
    comprehension may sit only in an ``except`` handler (first sight of a
    key, one list per wheel bucket) or in an annotated setup assignment."""
    tree = ast.parse(Path(engine.__file__).read_text())
    hot = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
           and node.name in ("_send_fast", "_run_blocks")]
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
