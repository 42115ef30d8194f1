"""Unified declarative deployment API.

One front door to the whole system::

    from repro.api import SystemSpec, RunReport, build_stable, build_system

    # a frozen, JSON-round-trippable spec, realised by build_system
    system = build_system(SystemSpec(topology="sharded", shards=4, seed=7))

    # or built, populated and run to a legitimate state in one call
    system, peers = build_stable(SystemSpec(seed=7), n=16)

    # typed lifecycle hooks instead of polling loops
    system.hooks.on_relegitimacy(lambda topics, rounds: print(topics, rounds))

Every driver layer (experiments E1–E13, the scenario engine, the benchmark,
examples, workloads) describes its system as a :class:`SystemSpec`, builds
it with :func:`build_system` / :func:`build_stable` and produces a
:class:`RunReport`.

Layering: :mod:`repro.api.spec` and :mod:`repro.api.report` sit below the
facade; the hook registry lives in :mod:`repro.core.hooks` (the facade
instantiates one per system) and is re-exported here;
:mod:`repro.api.builder` sits above the facade and realises specs into it.
"""

from repro.api.builder import build_stable, build_system
from repro.api.report import RunReport
from repro.api.spec import TOPOLOGIES, SystemSpec
from repro.core.config import DEFAULT_CHECK_EVERY_ROUNDS, DEFAULT_MAX_ROUNDS
from repro.core.hooks import HOOK_EVENTS, HookRegistry

__all__ = [
    "SystemSpec",
    "TOPOLOGIES",
    "HookRegistry",
    "HOOK_EVENTS",
    "RunReport",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_CHECK_EVERY_ROUNDS",
    "build_system",
    "build_stable",
]
