"""Ambient-nondeterminism and RNG-discipline rules.

Two rules share the call-resolution machinery here:

* **no-ambient-nondeterminism** — wall-clock reads (``time.time``,
  ``perf_counter``, ``datetime.now`` …), ``os.urandom``, ``uuid`` and
  ``secrets`` anywhere; a site that stamps a wall time on purpose
  (``RunReport.wall_seconds``) carries a
  ``# repro: allow[no-ambient-nondeterminism]`` pragma, the one waiver.
  Reports must be pure functions of the seed; a stray clock read is exactly
  the bug class that shows up weeks later as an unexplainable golden-file
  diff.
* **rng-discipline** — draws from the *module-level* ``random`` functions
  (``random.random()``, ``random.shuffle`` …) or unseeded
  ``random.Random()`` instances.  All randomness must flow from seeded
  ``random.Random`` streams (usually via :func:`repro.sim.rng.derive_rng`),
  or runs stop being reproducible.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.check.context import FileContext, resolve_dotted
from repro.check.findings import Finding
from repro.check.rules.base import Rule, register

#: Dotted call targets that read ambient wall-clock/entropy state.
AMBIENT_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})

#: Module prefixes whose calls are ambient wholesale.
AMBIENT_MODULES = ("secrets.",)

#: ``random``-module functions that draw from (or reseed) the shared global
#: RNG.  ``random.Random`` / ``random.SystemRandom`` are class constructors,
#: handled separately.
_GLOBAL_RANDOM_SAFE = frozenset({"Random", "SystemRandom"})


def _called_names(tree: ast.Module, import_map: dict
                  ) -> Iterator[Tuple[ast.Call, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = resolve_dotted(node.func, import_map)
            if dotted:
                yield node, dotted


@register
class AmbientNondeterminismRule(Rule):
    id = "no-ambient-nondeterminism"
    title = "wall-clock, uuid or OS-entropy reads poison report determinism"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node, dotted in _called_names(ctx.tree, ctx.import_map):
            if dotted in AMBIENT_CALLS or dotted.startswith(AMBIENT_MODULES):
                yield Finding(
                    rule=self.id, path=ctx.relpath, line=node.lineno,
                    col=node.col_offset,
                    message=(f"ambient call {dotted}() — report paths must be "
                             f"pure functions of the seed; measure wall time "
                             f"in bench/ or waive the site explicitly"))


@register
class RngDisciplineRule(Rule):
    id = "rng-discipline"
    title = ("randomness must come from seeded random.Random streams, "
             "never the global random module")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node, dotted in _called_names(ctx.tree, ctx.import_map):
            if not dotted.startswith("random."):
                continue
            attr = dotted.split(".", 1)[1]
            if "." in attr:  # random.Random.whatever — not the module RNG
                continue
            if attr in _GLOBAL_RANDOM_SAFE:
                if attr == "Random" and not node.args and not node.keywords:
                    yield Finding(
                        rule=self.id, path=ctx.relpath, line=node.lineno,
                        col=node.col_offset,
                        message=("unseeded random.Random() — seed it "
                                 "explicitly (derive_rng) so runs are "
                                 "reproducible"))
                continue
            yield Finding(
                rule=self.id, path=ctx.relpath, line=node.lineno,
                col=node.col_offset,
                message=(f"global-RNG call random.{attr}() — draw from a "
                         f"seeded random.Random (see repro.sim.rng.derive_rng) "
                         f"so the draw order is owned by the run's seed"))
