"""The fixed benchmark matrix of the perf-regression harness.

Every case is deterministic (fixed seeds, fixed workloads) and built through
the unified :class:`~repro.api.spec.SystemSpec` API, so the matrix measures
exactly the code paths users run:

* ``core_*`` — the engine-core timeout storm: n nodes, one message per node
  per Timeout, the event mix that dominates large simulations.  The
  ``core_2k_wheel`` case is *the* headline number: the seed 2k-node ×
  200-round run whose trajectory the README tracks (3.20 s seed → 2.67 s
  PR 1 → this PR).
* ``facade_*`` — full-protocol workloads through the facades: 8 topics × 8
  subscribers stabilized then run for 40 maintenance rounds, single
  supervisor vs the sharded-4 cluster.
* ``e11`` / ``e12`` — the experiment/scenario drivers (sharded scaling and
  the adversarial scenario suite), covering the cluster layer and the
  adversary-instrumented network path.

Cases return ``(events, payload)`` where ``events`` is the number of
simulator events processed (``None`` when the driver runs several internal
simulators) — the suite divides it by wall time for events/sec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: (events_processed_or_None, opaque payload kept alive until timing ends)
CaseResult = Tuple[Optional[int], object]


@dataclass(frozen=True)
class BenchCase:
    """One named, deterministic benchmark."""

    name: str
    description: str
    run: Callable[[], CaseResult]


# ----------------------------------------------------------------- core micro
def _core_storm(nodes: int, rounds: int, scheduler: str) -> CaseResult:
    from repro.sim.engine import Simulator, SimulatorConfig
    from repro.sim.node import ProtocolNode

    class Chatter(ProtocolNode):
        """One message per timeout to a fixed neighbour."""

        __slots__ = ()

        def on_timeout(self) -> None:
            self.send(self.node_id % nodes + 1, "Ping", sender=self.node_id)

        def on_Ping(self, sender, topic=None) -> None:
            pass

    sim = Simulator(SimulatorConfig(seed=42, scheduler=scheduler))
    for i in range(nodes):
        sim.add_node(Chatter(i + 1))
    sim.run_rounds(rounds)
    return sim.steps_executed, sim


# ------------------------------------------------------------ facade workload
def _facade_workload(topology: str, shards: int) -> CaseResult:
    from repro.api import SystemSpec, build_stable

    spec = SystemSpec(topology=topology, shards=shards, seed=11)
    system, _ = build_stable(spec, topics=[f"topic-{i}" for i in range(8)],
                             subscribers_per_topic=8)
    system.run_rounds(40)
    return system.sim.steps_executed, system


# ------------------------------------------------------- experiment / scenario
def _e11() -> CaseResult:
    from repro.experiments.experiments import e11_sharded_scaling

    return None, e11_sharded_scaling(seed=21)


def _e12() -> CaseResult:
    from repro.experiments.experiments import e12_adversarial_scenarios

    return None, e12_adversarial_scenarios(seed=5)


#: The full matrix, in execution order.
BENCH_CASES: List[BenchCase] = [
    BenchCase("core_2k_wheel",
              "engine core: 2000 nodes x 200 rounds, timeout wheel "
              "(the headline seed run)",
              lambda: _core_storm(2_000, 200, "wheel")),
    BenchCase("core_2k_heap",
              "engine core: 2000 nodes x 200 rounds, binary heap",
              lambda: _core_storm(2_000, 200, "heap")),
    BenchCase("core_5k_wheel",
              "engine core: 5000 nodes x 80 rounds, timeout wheel",
              lambda: _core_storm(5_000, 80, "wheel")),
    BenchCase("core_5k_heap",
              "engine core: 5000 nodes x 80 rounds, binary heap",
              lambda: _core_storm(5_000, 80, "heap")),
    BenchCase("core_20k_wheel",
              "engine core: 20000 nodes x 20 rounds, timeout wheel "
              "(production-scale storm: where a scale regression of the "
              "engine would be seen)",
              lambda: _core_storm(20_000, 20, "wheel")),
    BenchCase("core_50k_wheel",
              "engine core: 50000 nodes x 8 rounds, timeout wheel "
              "(large-storm scaling gate: per-event cost within ~2x of "
              "core_2k_wheel despite a working set past cache)",
              lambda: _core_storm(50_000, 8, "wheel")),
    BenchCase("core_100k_wheel",
              "engine core: 100000 nodes x 4 rounds, timeout wheel "
              "(the largest storm; heap-vs-wheel event-log parity at this "
              "size is pinned by tests/test_engine_scale.py)",
              lambda: _core_storm(100_000, 4, "wheel")),
    BenchCase("facade_single",
              "single supervisor: 8 topics x 8 subscribers stabilized "
              "+ 40 rounds",
              lambda: _facade_workload("single", 1)),
    BenchCase("facade_sharded4",
              "sharded-4 cluster: 8 topics x 8 subscribers stabilized "
              "+ 40 rounds",
              lambda: _facade_workload("sharded", 4)),
    BenchCase("e11_sharded_scaling",
              "experiment E11: per-supervisor load vs K (seed 21)",
              _e11),
    BenchCase("e12_scenarios",
              "experiment E12: adversarial scenario suite (seed 5)",
              _e12),
]

#: Subset CI runs on every push (fast, still covers engine + cluster +
#: adversary paths).
QUICK_CASES = ("core_2k_wheel", "facade_sharded4", "e12_scenarios")

_BY_NAME: Dict[str, BenchCase] = {case.name: case for case in BENCH_CASES}


def get_case(name: str) -> BenchCase:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown bench case {name!r}; known cases: {known}") from None
