"""The six workloads of the repo benchmark.

Every workload goes through the public API only and has three parts:
``setup`` (timed as ``setup_s``), ``run`` (the timed region) and ``check``
(correctness, outside both).  Sizes are the constants below; ``scale``
exists for ``bench/test_bench.py`` only.

The sizes are chosen so one repeat (set-up + timed region) takes about
1.0-1.5 s on the commit that introduced the benchmark: the driver makes 136
runs under a 3420 s cap, so seven repeats must fit in roughly 10 s.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.analysis.convergence import edge_set_signature
from repro.api import SystemSpec, builder
from repro.core.labels import label_of
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec
from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.node import ProtocolNode

#: Bytes per publication payload in the publishing workloads.
PAYLOAD_BYTES = 64


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _database_exact(system, topic: Optional[str] = None) -> bool:
    """The supervisor database holds exactly the live members under
    ``l(0) .. l(n-1)`` (the first legitimacy condition, checked on its own
    so a wrong oracle cannot hide a wrong database)."""
    members = system.members(topic)
    topic = topic or system.params.default_topic
    entries = system.supervisor_of(topic).database(topic).entries
    return (set(entries) == {label_of(i) for i in range(len(members))}
            and sorted(entries.values()) == members)


class Workload:
    """One named workload.  ``run`` receives the remaining-rounds budget for
    its completion predicate (``None`` = the library default) so a test can
    inject a failure by starving it."""

    name = ""
    why = ""
    #: what one op is, for reports
    op = ""
    #: whether the timed region drives the system until a predicate holds
    #: (so a ``max_rounds`` budget can starve it)
    has_budget = True
    #: How many times over a repeat makes the set-up, so that a cheap one is
    #: still timed over tens of milliseconds (``setup_s`` is the time of one).
    setup_builds = 1

    def sizes(self, scale: float = 1.0) -> Dict[str, int]:
        raise NotImplementedError

    def setup(self, seed: int, size: Dict[str, int]) -> SimpleNamespace:
        """Build the system the timed region starts from.  Returns a state
        object with at least ``sim`` and ``system`` (``None`` without a
        facade)."""
        raise NotImplementedError

    def run(self, state: SimpleNamespace, max_rounds: Optional[int]) -> None:
        raise NotImplementedError

    def ops(self, state: SimpleNamespace) -> int:
        """Ops attempted by the timed region (known after ``run``)."""
        raise NotImplementedError

    def check(self, state: SimpleNamespace) -> int:
        """Number of failed ops (0 = the output is correct)."""
        raise NotImplementedError

    @staticmethod
    def _budget(max_rounds: Optional[int]) -> Dict[str, int]:
        return {} if max_rounds is None else {"max_rounds": max_rounds}


class JoinStabilize(Workload):
    name = "join_stabilize"
    why = ("Thm 7/8: n subscribers join an empty system and it stabilizes; "
           "supervisor database and legitimacy oracle do most of the work")
    op = "subscriber joined and stable"
    #: deliberately not a power of two
    SUBSCRIBERS = 192
    #: Rounds the timed region always runs.  Legitimacy is reached after 10
    #: rounds on some seeds and 15 on others (the facade checks every 5), a
    #: 30 % swing in work that says nothing about host speed — so once
    #: ``run_until_legitimate`` returns, the region keeps the same cadence of
    #: 5 rounds + one oracle check up to this horizon.  Every seed then does
    #: 20 rounds and 5 checks; the round legitimacy was first seen at is
    #: reported apart as the simulated cost.
    HORIZON_ROUNDS = 20
    setup_builds = 100

    def sizes(self, scale: float = 1.0) -> Dict[str, int]:
        return {"subscribers": _scaled(self.SUBSCRIBERS, scale, 8)}

    def setup(self, seed, size):
        system = builder.build_system(SystemSpec(seed=seed))
        return SimpleNamespace(system=system, sim=system.sim, size=size)

    def run(self, state, max_rounds):
        system, sim = state.system, state.sim
        for _ in range(state.size["subscribers"]):
            system.add_subscriber()
        horizon = self.HORIZON_ROUNDS if max_rounds is None else max_rounds
        cadence = system.spec.check_every_rounds
        state.ok = system.run_until_legitimate(max_rounds=horizon)
        state.rounds_to_goal = sim.now / sim.config.timeout_period
        while state.ok and sim.now + cadence <= horizon * sim.config.timeout_period:
            system.run_rounds(cadence)
            state.ok = system.is_legitimate()

    def ops(self, state):
        return state.size["subscribers"]

    def check(self, state):
        system = state.system
        good = (state.ok and system.is_legitimate()
                and _database_exact(system)
                and len(system.members()) == state.size["subscribers"])
        return 0 if good else self.ops(state)


class SteadyMaintain(Workload):
    name = "steady_maintain"
    why = ("closure + constant maintenance work: a legitimate system with "
           "converged publications just runs; subscriber timeouts, shortcut "
           "upkeep, label algebra and trie root-hash reads dominate")
    op = "node-round"
    has_budget = False
    SUBSCRIBERS = 96
    PUBLICATIONS = 32
    ROUNDS = 80

    def sizes(self, scale: float = 1.0) -> Dict[str, int]:
        return {"subscribers": _scaled(self.SUBSCRIBERS, scale, 8),
                "publications": _scaled(self.PUBLICATIONS, scale, 4),
                "rounds": _scaled(self.ROUNDS, scale, 8)}

    def setup(self, seed, size):
        rng = random.Random(seed)
        system, peers = builder.build_stable(SystemSpec(seed=seed),
                                             size["subscribers"])
        keys = {system.publish(rng.choice(peers), rng.randbytes(PAYLOAD_BYTES)).key
                for _ in range(size["publications"])}
        if not system.run_until_publications_converged(expected_keys=keys):
            raise RuntimeError("steady_maintain: publications did not converge "
                               "during set-up")
        return SimpleNamespace(
            system=system, sim=system.sim, size=size, keys=keys,
            edges=edge_set_signature(system.explicit_edges()))

    def run(self, state, max_rounds):
        state.system.run_rounds(state.size["rounds"])

    def ops(self, state):
        return state.size["subscribers"] * state.size["rounds"]

    def check(self, state):
        system = state.system
        good = (system.is_legitimate()
                and edge_set_signature(system.explicit_edges()) == state.edges
                and system.publications_converged(expected_keys=state.keys))
        return 0 if good else self.ops(state)


class PublishFanout(Workload):
    name = "publish_fanout"
    why = ("Thm 17 / Sec. 4.3: publications flood a stable ring; the only "
           "workload where flooding, trie inserts, hashing and publication "
           "objects do most of the work and payload state dominates memory")
    op = "(publication, member) delivery"
    SUBSCRIBERS = 128
    PUBLICATIONS = 96

    def sizes(self, scale: float = 1.0) -> Dict[str, int]:
        return {"subscribers": _scaled(self.SUBSCRIBERS, scale, 8),
                "publications": _scaled(self.PUBLICATIONS, scale, 4)}

    def setup(self, seed, size):
        system, peers = builder.build_stable(SystemSpec(seed=seed),
                                             size["subscribers"])
        return SimpleNamespace(system=system, sim=system.sim, size=size,
                               peers=peers, rng=random.Random(seed))

    def run(self, state, max_rounds):
        system, rng = state.system, state.rng
        state.keys = {
            system.publish(rng.choice(state.peers),
                           rng.randbytes(PAYLOAD_BYTES)).key
            for _ in range(state.size["publications"])}
        state.ok = system.run_until_publications_converged(
            expected_keys=state.keys, check_every_rounds=1,
            **self._budget(max_rounds))

    def ops(self, state):
        return state.size["subscribers"] * state.size["publications"]

    def check(self, state):
        system = state.system
        members = system.members()
        # Colliding payload keys or lost members would shrink the product.
        good = (state.ok
                and len(state.keys) * len(members) == self.ops(state)
                and all(system.all_subscribers_have(key) for key in state.keys))
        return 0 if good else self.ops(state)


class ChurnRecover(Workload):
    name = "churn_recover"
    why = ("Sec. 3.3 + Thm 7 unsubscribe: crashes, leaves and joins hit a "
           "stable ring at once; supervisor repair path, oracle called mostly "
           "on illegitimate states (an insert gain that costs removals "
           "shows here)")
    #: Rounds to recover vary 2x between seeds (the supervisor's round-robin
    #: refresh reaches the last affected member after anything up to n
    #: rounds), so host speed is counted per simulated node-round of
    #: recovery; rounds per recovery is the simulated cost, reported apart.
    op = "node-round of recovery"
    SUBSCRIBERS = 80
    #: crashes = leaves = joins
    CHANGES_PER_KIND = 10

    def sizes(self, scale: float = 1.0) -> Dict[str, int]:
        return {"subscribers": _scaled(self.SUBSCRIBERS, scale, 12),
                "changes_per_kind": _scaled(self.CHANGES_PER_KIND, scale, 2)}

    def setup(self, seed, size):
        system, peers = builder.build_stable(SystemSpec(seed=seed),
                                             size["subscribers"])
        victims = random.Random(seed).sample(peers, 2 * size["changes_per_kind"])
        return SimpleNamespace(system=system, sim=system.sim, size=size,
                               victims=victims, start=system.sim.now)

    def run(self, state, max_rounds):
        system, k = state.system, state.size["changes_per_kind"]
        for victim in state.victims[:k]:
            system.crash(victim)
        for victim in state.victims[k:]:
            system.unsubscribe(victim)
        for _ in range(k):
            system.add_subscriber()
        state.ok = system.run_until_legitimate(**self._budget(max_rounds))

    @staticmethod
    def _survivors(size: Dict[str, int]) -> int:
        return size["subscribers"] - size["changes_per_kind"]

    def ops(self, state):
        sim = state.sim
        rounds = (sim.now - state.start) / sim.config.timeout_period
        return round(rounds * self._survivors(state.size))

    def check(self, state):
        system = state.system
        good = (state.ok and system.is_legitimate()
                and _database_exact(system)
                and len(system.members()) == self._survivors(state.size))
        return 0 if good else self.ops(state)


class AdversarialSharded(Workload):
    name = "adversarial_sharded"
    why = ("the only workload on the serial engine gear: link adversary, "
           "latency telemetry, 4-shard cluster, scenario runner and report "
           "serialization, with loss, a partition and a supervisor crash")
    op = "scenario invariant evaluated"
    SUBSCRIBERS = 64
    TOPICS = 8
    PHASE_ROUNDS = 30
    setup_builds = 40

    def sizes(self, scale: float = 1.0) -> Dict[str, int]:
        return {"subscribers": _scaled(self.SUBSCRIBERS, scale, 16),
                "topics": _scaled(self.TOPICS, scale, 4),
                "phase_rounds": _scaled(self.PHASE_ROUNDS, scale, 10)}

    @staticmethod
    def scenario(size: Dict[str, int]) -> ScenarioSpec:
        rounds = size["phase_rounds"]
        return ScenarioSpec(
            name="bench-adversarial-sharded",
            description="loss+duplication, partition with heal, supervisor "
                        "crash under churn",
            facade="sharded", shards=4, subscribers=size["subscribers"],
            topics=tuple(f"t{i}" for i in range(size["topics"])),
            phases=(
                PhaseSpec(name="lossy", rounds=rounds, loss_rate=0.10,
                          duplicate_rate=0.05, publications=24),
                PhaseSpec(name="partition", rounds=rounds, publications=12,
                          partition=PartitionSpec(
                              name="cut", fraction=0.3,
                              heal_after_rounds=rounds / 2)),
                PhaseSpec(name="failover", rounds=rounds, crash_supervisor=True,
                          loss_rate=0.05, joins=6, leaves=4, crashes=3,
                          publications=12),
            ))

    def setup(self, seed, size):
        scenario = self.scenario(size)
        system = builder.build_system(SystemSpec(
            topology="sharded", shards=4, telemetry=True, seed=seed))
        moved: List[str] = []
        system.hooks.on_supervisor_crash(
            lambda _shard, topics: moved.extend(topics))
        return SimpleNamespace(system=system, sim=system.sim, size=size,
                               seed=seed, scenario=scenario, moved=moved)

    def run(self, state, max_rounds):
        scenario = state.scenario
        if max_rounds is not None:
            scenario = scenario.with_overrides(max_stabilize_rounds=max_rounds)
        runner = ScenarioRunner(scenario, seed=state.seed, system=state.system)
        state.report = runner.run_report()
        state.report_json = state.report.to_json()

    def ops(self, state):
        # initial stabilization + (relegitimize, delivery, supervisor load)
        # per phase
        return 1 + 3 * len(state.scenario.phases)

    def check(self, state):
        claims = state.report.claims
        held = sum(1 for ok in claims.values() if ok)
        return self.ops(state) - held


class _Chatter(ProtocolNode):
    """One Ping per timeout to a fixed neighbour (the ``core_2k_wheel``
    event mix of ``repro.perf.cases``)."""

    __slots__ = ("peer",)

    def __init__(self, node_id: int, peer: int) -> None:
        super().__init__(node_id)
        self.peer = peer

    def on_timeout(self) -> None:
        self.send(self.peer, "Ping", sender=self.node_id)

    def on_Ping(self, sender, topic=None) -> None:
        pass


class EngineStorm(Workload):
    name = "engine_storm"
    why = ("sim.* does all of the work and the protocol none: exercises "
           "engine changes, bypasses every protocol-layer change "
           "(same event mix as the core_2k_wheel headline)")
    op = "event"
    has_budget = False
    NODES = 2_000
    ROUNDS = 280
    setup_builds = 12

    def sizes(self, scale: float = 1.0) -> Dict[str, int]:
        return {"nodes": _scaled(self.NODES, scale, 50),
                "rounds": _scaled(self.ROUNDS, scale, 10)}

    def setup(self, seed, size):
        sim = Simulator(SimulatorConfig(seed=seed, scheduler="wheel"))
        nodes = size["nodes"]
        for i in range(nodes):
            sim.add_node(_Chatter(i + 1, (i + 1) % nodes + 1))
        return SimpleNamespace(system=None, sim=sim, size=size)

    def run(self, state, max_rounds):
        state.sim.run_rounds(state.size["rounds"])

    def ops(self, state):
        # The simulator is fresh: every step it executed is in the region.
        return state.sim.steps_executed

    def check(self, state):
        rounds = state.size["rounds"]
        # Every period carries ±20 % jitter, so a healthy node fires close to
        # ``rounds`` times; a stalled or runaway one falls far outside this.
        low, high = rounds / 1.25, rounds / 0.75 + 1
        good = all(low <= count <= high
                   for count in state.sim.timeout_counts.values())
        return 0 if good else self.ops(state)


WORKLOADS: Tuple[Workload, ...] = (
    JoinStabilize(), SteadyMaintain(), PublishFanout(), ChurnRecover(),
    AdversarialSharded(), EngineStorm(),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
