#!/usr/bin/env python3
"""The unified deployment API end to end: spec → build → hooks → RunReport.

One declarative :class:`~repro.api.spec.SystemSpec` describes the deployment
(topology, protocol params, seed); ``build_system`` turns it into a
running system; typed hooks observe the run instead of polling loops; and the
scenario engine hands back a single :class:`~repro.api.report.RunReport`.

Run with::

    python examples/unified_api.py
"""

from __future__ import annotations

from repro.api import SystemSpec, build_system
from repro.scenarios import get_scenario
from repro.scenarios.runner import ScenarioRunner


def main() -> None:
    # 1. Declarative spec — frozen and losslessly JSON-round-trippable, so a
    #    deployment can live in code, a config file, or CI.
    spec = SystemSpec(topology="sharded", shards=4, seed=7)
    wire = spec.to_json(indent=2)
    assert SystemSpec.from_json(wire) == spec
    print("SystemSpec round-trips through JSON:")
    print(wire)

    # 2. Build — build_system is the one way to realise a spec; the built
    #    system keeps its spec for reporting.
    cluster = build_system(spec)
    assert cluster.spec == spec
    print(f"\nbuilt {type(cluster).__name__} with "
          f"supervisors {cluster.supervisor_node_ids()}")

    # 3. Hooks — typed callbacks replace ad-hoc polling of is_legitimate().
    events = []
    cluster.hooks.on_subscribe(
        lambda node, topic: events.append(f"subscribe {node}->{topic}"))
    cluster.hooks.on_relegitimacy(
        lambda topics, rounds: events.append(
            f"legitimate {','.join(topics)} after {rounds:.0f} rounds"))
    cluster.hooks.on_supervisor_crash(
        lambda shard, moved: events.append(
            f"supervisor {shard} crashed, moved topics {list(moved)}"))

    for i in range(12):
        cluster.add_subscriber(f"topic-{i % 4}")
    cluster.run_until_legitimate()
    cluster.crash_supervisor(3)
    cluster.run_until_legitimate()
    print(f"\n{len(events)} hook events; the last three:")
    for line in events[-3:]:
        print(f"  {line}")

    # 4. RunReport — one result object for scenarios and experiments alike
    #    (tables + claims + embedded scenario detail).
    runner = ScenarioRunner(get_scenario("sharded-supervisor-failover"), seed=7)
    report = runner.run_report()
    print(f"\nscenario run report: {report.title}")
    print(f"  claims: {sum(report.claims.values())}/{len(report.claims)} hold; "
          f"passed={report.passed}")
    print(f"  canonical JSON: {len(report.to_json())} bytes "
          "(byte-identical per seed)")


if __name__ == "__main__":
    main()
