"""Unified declarative deployment API.

One composable front door to the whole system::

    from repro.api import PubSub, SystemSpec, RunReport, build_stable

    # declarative: a frozen, JSON-round-trippable spec
    spec = SystemSpec(topology="sharded", shards=4, seed=7)
    system = spec.build()

    # fluent: the same spec, built up step by step
    system = PubSub.builder().sharded(4).seed(7).build()

    # typed lifecycle hooks instead of polling loops
    system.hooks.on_relegitimacy(lambda topics, rounds: print(topics, rounds))

Every driver layer (experiments E1–E12, the scenario engine, benchmarks,
examples, workloads) consumes :class:`SystemSpec` and produces a
:class:`RunReport`, so no driver names a concrete facade class — the
precondition for future multi-backend work.

Layering: :mod:`repro.api.spec` and :mod:`repro.api.report` sit below the
facades; the hook registry's implementation lives in :mod:`repro.core.hooks`
(the facade base instantiates one per system) and is re-exported here;
:mod:`repro.api.builder` sits above the facades and realises specs into them.
"""

from repro.api.builder import PubSub, SystemBuilder, build_stable, build_system
from repro.api.hooks import HOOK_EVENTS, HookRegistry
from repro.api.report import RunReport
from repro.api.spec import TOPOLOGIES, SystemSpec
from repro.core.config import DEFAULT_CHECK_EVERY_ROUNDS, DEFAULT_MAX_ROUNDS

__all__ = [
    "SystemSpec",
    "TOPOLOGIES",
    "HookRegistry",
    "HOOK_EVENTS",
    "RunReport",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_CHECK_EVERY_ROUNDS",
    "PubSub",
    "SystemBuilder",
    "build_system",
    "build_stable",
]
