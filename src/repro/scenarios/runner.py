"""Drive a :class:`~repro.scenarios.spec.ScenarioSpec` against a facade.

The runner owns the whole lifecycle of one scenario run:

1. build the system the spec asks for (one supervisor or K shards) through
   the unified deployment API (:meth:`ScenarioSpec.system_spec` →
   :func:`repro.api.builder.build_system`);
2. populate and stabilize the initial membership;
3. per phase — unleash the disruptions (crash waves, supervisor failover,
   partitions, churn, publication storms, adversary toggles), run the
   disruption window, quiesce the adversary, and evaluate the invariants:
   **time-to-relegitimacy**, **eventual publication delivery to all
   surviving members** (Theorem 17 under adversity), and a generous
   **supervisor load bound** (Theorems 5/7 should keep the control plane's
   request volume linear in rounds + membership operations, never quadratic);
4. assemble everything into a :class:`ScenarioReport` whose JSON (written
   by the artifact codec, :mod:`repro.artifact`) is **byte-identical** for
   identical seeds — on repeat runs and with telemetry on or off (asserted
   by E12 and the tests).

Determinism rules observed throughout: every coin flip comes from an RNG
derived from ``(seed, scenario, phase)``; draws happen either at scheduling
time or inside simulator callbacks (which fire in seed-determined event
order); no wall-clock value ever enters the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.api.builder import build_system
from repro.api.report import RunReport
from repro.artifact import Artifact
from repro.core.facade import SupervisedPubSub
from repro.scenarios.adversary import LinkAdversary
from repro.scenarios.spec import PhaseSpec, ScenarioSpec
from repro.sim.rng import derive_rng


def _round(value: float, digits: int = 3) -> float:
    """Deterministic float rounding for report fields."""
    return round(float(value), digits)


@dataclass
class PhaseReport(Artifact, derived=("passed",)):
    """Measurements and invariant verdicts for one phase."""

    name: str
    disruptions: List[str]
    elapsed_rounds: float = 0.0
    relegitimized: bool = False
    relegitimize_rounds: float = 0.0
    delivery_checked: bool = False
    delivered: bool = False
    #: publications actually issued during this phase's window
    publications_issued: int = 0
    #: of those, how many still exist at some live member after the settle
    publications_surviving: int = 0
    live_members: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    duplicated: int = 0
    drops: Dict[str, int] = field(default_factory=dict)
    supervisor_hotspot_requests: int = 0
    supervisor_request_bound: int = 0
    invariants: Dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.invariants.values())


@dataclass
class ScenarioReport(Artifact, derived=("passed",)):
    """The full result of one scenario run.

    Floats are rounded at measurement time, so identical seeds produce
    identical ``to_json`` bytes regardless of wall clock.
    """

    scenario: str
    seed: int
    facade: str
    shards: int
    subscribers_initial: int
    topics: List[str]
    stabilized: bool = False
    stabilize_rounds: float = 0.0
    phases: List[PhaseReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.stabilized and all(p.passed for p in self.phases)

    def invariants(self) -> Dict[str, bool]:
        """Flat ``phase/invariant -> verdict`` map (plus initial stabilization)."""
        out = {"initial stabilization": self.stabilized}
        for phase in self.phases:
            for name, holds in sorted(phase.invariants.items()):
                out[f"{phase.name}: {name}"] = holds
        return out


class ScenarioRunner:
    """Execute one :class:`ScenarioSpec` and produce a :class:`ScenarioReport`."""

    #: Per-phase supervisor-load bound: hotspot requests must stay below
    #: ``RATE * elapsed_rounds + PER_OP * membership_ops + SLACK``.  Theorem 5
    #: gives < 1 maintenance request per interval system-wide and Theorem 7 a
    #: constant per operation; the constants here are deliberately loose (loss
    #: and partitions cause bounded re-requests) — the invariant catches
    #: load blow-ups, not small constants.
    LOAD_RATE_PER_ROUND = 5.0
    LOAD_PER_OP = 20.0
    LOAD_SLACK = 50.0

    def __init__(self, spec: ScenarioSpec, seed: int = 0,
                 system: Optional[SupervisedPubSub] = None) -> None:
        self.spec = spec
        self.seed = seed
        # The facade comes from the unified deployment API: the scenario's
        # SystemSpec names the topology and shard count.  An
        # explicitly injected ``system`` overrides it (custom facades, and
        # the parity tests that reconstruct systems by hand).
        self.system: SupervisedPubSub = system if system is not None \
            else build_system(spec.system_spec(seed=seed))
        self.adversary = LinkAdversary(self.system.sim.adversary_rng())
        self.system.sim.install_adversary(self.adversary)
        #: topic -> keys published by the scenario so far
        self._published: Dict[str, Set[str]] = {t: set() for t in spec.topics}

    # ------------------------------------------------------------------- run
    def run(self) -> ScenarioReport:
        spec = self.spec
        report = ScenarioReport(
            scenario=spec.name, seed=self.seed, facade=spec.facade,
            shards=spec.shards, subscribers_initial=spec.subscribers,
            topics=list(spec.topics))
        system = self.system
        period = system.sim.config.timeout_period

        for i in range(spec.subscribers):
            system.add_subscriber(spec.topics[i % len(spec.topics)])
        start = system.sim.now
        report.stabilized = all(
            system.run_until_legitimate(t, max_rounds=spec.max_stabilize_rounds)
            for t in spec.topics)
        report.stabilize_rounds = _round((system.sim.now - start) / period, 1)
        if not report.stabilized:
            return report

        for index, phase in enumerate(spec.phases):
            report.phases.append(self._run_phase(index, phase))
        return report

    def run_report(self) -> RunReport:
        """Run the scenario and return the unified
        :class:`~repro.api.report.RunReport` view of its result — with the
        system's telemetry payload attached when the facade was built with
        ``telemetry=True``."""
        report = RunReport.from_scenario(self.run())
        recorder = getattr(self.system, "telemetry", None)
        if recorder is not None:
            report.telemetry = recorder.to_dict()
        return report

    # ----------------------------------------------------------------- phases
    def _live_members(self) -> List[int]:
        """Sorted union of every topic's live intended members."""
        members: Set[int] = set()
        for topic in self.spec.topics:
            members.update(self.system.members(topic))
        return sorted(members)

    def _run_phase(self, index: int, phase: PhaseSpec) -> PhaseReport:
        system = self.system
        sim = system.sim
        period = sim.config.timeout_period
        start = sim.now
        window = phase.rounds * period
        rng = derive_rng(self.seed, "scenario", self.spec.name, "phase", index)
        phase_report = PhaseReport(name=phase.name,
                                   disruptions=list(phase.disruptions))
        baseline_stats = sim.network.stats.snapshot()
        baseline_requests = system.supervisor_request_counts()

        membership_ops = phase.joins + phase.leaves + phase.crashes

        # --- instantaneous disruptions at phase start -----------------------
        if phase.crash_fraction > 0.0:
            membership_ops += self._crash_wave(phase.crash_fraction, rng)
        if phase.crash_supervisor:
            membership_ops += self._crash_one_supervisor()
        if phase.partition is not None:
            self._open_partition(index, phase, rng)

        # --- windowed disruptions -------------------------------------------
        self.adversary.set_rates(phase.loss_rate, phase.duplicate_rate)
        if phase.delay_spike_factor != 1.0:
            self.adversary.add_delay_spike(start, start + window,
                                           phase.delay_spike_factor)
        self._schedule_churn(phase, start, window, rng)
        issued = self._schedule_publications(index, phase, start, window, rng)

        sim.run_for(window)

        # --- settle & invariants --------------------------------------------
        self.adversary.quiesce()
        settle_start = sim.now
        relegitimized = system.run_until_legitimate(
            max_rounds=phase.settle_rounds)
        phase_report.relegitimized = relegitimized
        phase_report.relegitimize_rounds = _round(
            (sim.now - settle_start) / period, 1)
        if phase.expect_relegitimize:
            phase_report.invariants["relegitimizes after disruptions"] = relegitimized

        delivery_budget = max(0.0,
                              phase.settle_rounds * period - (sim.now - settle_start))
        self._check_delivery(phase, phase_report, delivery_budget, issued)
        phase_report.publications_issued = len(issued)

        delta = sim.network.stats.delta(baseline_stats)
        phase_report.messages_sent = delta.total_sent
        phase_report.messages_delivered = delta.total_delivered
        phase_report.duplicated = delta.duplicated
        phase_report.drops = {reason: count
                              for reason, count in delta.drops_by_reason.items()
                              if count}
        phase_report.live_members = len(self._live_members())
        phase_report.elapsed_rounds = _round((sim.now - start) / period, 1)

        self._check_supervisor_load(phase_report, baseline_requests,
                                    membership_ops)
        self.system.hooks.emit_phase(phase.name, phase_report)
        return phase_report

    # -------------------------------------------------------- phase building
    def _crash_wave(self, fraction: float, rng) -> int:
        """Instantly crash ``fraction`` of the members, keeping every topic
        at two or more live members (the smallest ring the paper considers
        interesting).  Returns the number of nodes crashed."""
        system = self.system
        members = self._live_members()
        wanted = int(fraction * len(members))
        if wanted == 0:
            return 0
        live_per_topic = {t: len(system.members(t)) for t in self.spec.topics}
        crashed = 0
        for victim in rng.sample(members, len(members)):
            if crashed >= wanted:
                break
            topics_of_victim = [t for t in self.spec.topics
                                if victim in system.registry.members(t)]
            if any(live_per_topic[t] <= 2 for t in topics_of_victim):
                continue
            system.crash(victim)
            for t in topics_of_victim:
                live_per_topic[t] -= 1
            crashed += 1
        return crashed

    def _crash_one_supervisor(self) -> int:
        """Crash the highest-numbered live shard; its topics rebalance.  The
        returned op count covers the re-subscribe nudge every member of a
        moved topic sends."""
        cluster = self.system
        live = cluster.live_shard_ids()
        if len(live) <= 1:
            return 0
        moved_topics = cluster.crash_supervisor(live[-1])
        return sum(len(cluster.members(t)) for t in moved_topics)

    def _open_partition(self, index: int, phase: PhaseSpec, rng) -> None:
        spec = phase.partition
        assert spec is not None
        sim = self.system.sim
        period = sim.config.timeout_period
        members = self._live_members()
        isolated_count = max(1, int(spec.fraction * len(members)))
        if isolated_count >= len(members):
            isolated_count = len(members) - 1
        isolated = rng.sample(members, isolated_count)
        self.adversary.add_partition(
            f"phase{index}-{spec.name}", [isolated], start=sim.now,
            heal_time=sim.now + spec.heal_after_rounds * period)

    def _schedule_churn(self, phase: PhaseSpec, start: float, window: float,
                        rng) -> None:
        system = self.system
        topics = self.spec.topics

        def join() -> None:
            system.add_subscriber(rng.choice(topics))

        def depart(kind: str) -> None:
            topic = rng.choice(topics)
            members = system.members(topic)
            if len(members) <= 2:
                return
            victim = rng.choice(members)
            if kind == "leave":
                system.unsubscribe(victim, topic)
            else:
                system.crash(victim)

        events = ([join] * phase.joins
                  + [lambda: depart("leave")] * phase.leaves
                  + [lambda: depart("crash")] * phase.crashes)
        for callback in events:
            system.sim.call_at(start + rng.uniform(0.0, window), callback)

    def _schedule_publications(self, index: int, phase: PhaseSpec, start: float,
                               window: float, rng) -> List[Tuple[str, str]]:
        """Spread ``phase.publications`` publish calls over the window; the
        publisher is a live subscribed member drawn at fire time.  Returns a
        list the callbacks append each actually-issued ``(topic, key)`` to (a
        scheduled publish no-ops when no eligible publisher is left), so read
        it only after the window has run."""
        system = self.system
        topics = self.spec.topics
        issued: List[Tuple[str, str]] = []

        def make_publish(payload: bytes, topic: str):
            def publish() -> None:
                candidates = []
                for node_id in system.members(topic):
                    view = system.subscribers[node_id].view(topic, create=False)
                    if (view is not None and view.subscribed
                            and not view.pending_unsubscribe):
                        candidates.append(node_id)
                if not candidates:
                    return
                publication = system.publish(rng.choice(candidates), payload, topic)
                self._published[topic].add(publication.key)
                issued.append((topic, publication.key))
            return publish

        for i in range(phase.publications):
            payload = (f"{self.spec.name}/phase{index}/pub{i}").encode("ascii")
            topic = topics[i % len(topics)]
            at = start + (i + 1) * window / (phase.publications + 1)
            system.sim.call_at(at, make_publish(payload, topic))
        return issued

    # -------------------------------------------------------------- invariants
    def _surviving_keys(self, topic: str) -> Set[str]:
        """Published keys of ``topic`` still held by at least one live member.

        A publication whose only holder crashed before flooding it is gone —
        no protocol can resurrect it — so delivery is judged on the keys that
        survived anywhere (exactly Theorem 17's premise)."""
        system = self.system
        keys = self._published[topic]
        if not keys:
            return set()
        surviving: Set[str] = set()
        for node_id in system.members(topic):
            subscriber = system.subscribers[node_id]
            surviving.update(k for k in keys
                             if subscriber.has_publication(k, topic))
        return surviving

    def _delivery_converged(self) -> bool:
        system = self.system
        for topic in self.spec.topics:
            surviving = self._surviving_keys(topic)
            if not surviving:
                continue
            for node_id in system.members(topic):
                subscriber = system.subscribers[node_id]
                if not all(subscriber.has_publication(k, topic) for k in surviving):
                    return False
        return True

    def _check_delivery(self, phase: PhaseSpec, phase_report: PhaseReport,
                        budget: float,
                        issued: Sequence[Tuple[str, str]]) -> None:
        """Delivery is judged over *every* publication the scenario issued so
        far (old publications must stay converged through later disruptions),
        while ``publications_surviving`` counts only this phase's ``issued``
        publications that still exist anywhere, matching
        ``publications_issued``."""
        total_published = sum(len(keys) for keys in self._published.values())
        if total_published == 0:
            return
        system = self.system
        period = system.sim.config.timeout_period
        delivered = system.sim.run_until(self._delivery_converged,
                                         check_every=5 * period,
                                         max_time=max(budget, 5 * period))
        phase_report.delivery_checked = True
        phase_report.delivered = delivered
        surviving_by_topic = {t: self._surviving_keys(t) for t in self.spec.topics}
        phase_report.publications_surviving = sum(
            1 for topic, key in issued if key in surviving_by_topic[topic])
        if phase.expect_delivery:
            phase_report.invariants[
                "surviving publications reach all live members"] = delivered

    def _check_supervisor_load(self, phase_report: PhaseReport,
                               baseline_requests: Dict[int, int],
                               membership_ops: int) -> None:
        current = self.system.supervisor_request_counts()
        hotspot = max((current.get(sup, 0) - baseline_requests.get(sup, 0)
                       for sup in current), default=0)
        bound = int(self.LOAD_RATE_PER_ROUND * phase_report.elapsed_rounds
                    + self.LOAD_PER_OP * membership_ops + self.LOAD_SLACK)
        phase_report.supervisor_hotspot_requests = hotspot
        phase_report.supervisor_request_bound = bound
        phase_report.invariants["supervisor request load within bound"] = (
            hotspot <= bound)
