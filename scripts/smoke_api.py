#!/usr/bin/env python
"""Unified-API smoke: spec JSON round-trip + a built system + a scenario run.

CI runs this on every push.  It fails (non-zero exit) if:

* a :class:`~repro.api.spec.SystemSpec` does not survive a lossless JSON
  round-trip,
* ``build_system`` does not keep the spec it built, or builds the wrong
  number of supervisors,
* a scenario driven through the new API fails its invariants or loses
  byte-determinism against a repeat run,
* the typed hook registry misses a lifecycle event the run must produce.

``REPRO_SMOKE_FAST=1`` shrinks the scenario (fewer subscribers) so the CI
python-version matrix stays well under its job timeout; every check is
identical.
"""

from __future__ import annotations

import os
import sys

from repro.api import SystemSpec, build_system
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioRunner

FAST = os.environ.get("REPRO_SMOKE_FAST") == "1"


def _scenario():
    spec = get_scenario("lossy-network")
    return spec.with_overrides(subscribers=8) if FAST else spec


def main() -> int:
    # --- SystemSpec JSON round-trip -----------------------------------------
    spec = SystemSpec(topology="sharded", shards=4, seed=3)
    if SystemSpec.from_json(spec.to_json()) != spec:
        print("FAIL: SystemSpec JSON round-trip is lossy")
        return 1
    print(f"spec round-trip ok ({len(spec.to_json())} bytes of JSON)")

    # --- the built system matches its spec ----------------------------------
    built = build_system(spec)
    if built.spec != spec or len(built.supervisor_node_ids()) != 4:
        print("FAIL: build_system does not realise its spec")
        return 1
    print(f"build_system ok ({type(built).__name__}, "
          f"{len(built.supervisor_node_ids())} supervisors)")

    # --- one scenario through the new path, with hooks ----------------------
    events = []
    runner = ScenarioRunner(_scenario(), seed=1)
    runner.system.hooks.on_relegitimacy(
        lambda topics, rounds: events.append("relegitimacy"))
    runner.system.hooks.on_phase(lambda name, rep: events.append(f"phase:{name}"))
    report = runner.run_report()
    if not report.passed:
        print(f"FAIL: scenario failed invariants: {report.failed_claims}")
        return 1
    if "relegitimacy" not in events or "phase:lossy" not in events:
        print(f"FAIL: expected hook events missing, got {events}")
        return 1
    rerun = ScenarioRunner(_scenario(), seed=1).run_report()
    if report.to_json() != rerun.to_json():
        print("FAIL: RunReport not byte-identical across repeat runs")
        return 1
    print(f"scenario via build_system ok ({len(events)} hook events, "
          f"{len(report.claims)} claims hold, byte-deterministic report)")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
