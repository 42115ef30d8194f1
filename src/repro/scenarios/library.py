"""Built-in scenario library.

Each entry is a :class:`~repro.scenarios.spec.ScenarioSpec` factory sized to
run in a couple of seconds, so the whole library doubles as a CI smoke suite
(``python -m repro scenario --run <name>``).  Sizing knobs (`subscribers`,
phase rounds) can be overridden with :meth:`ScenarioSpec.with_overrides` for
larger runs.

The library is intentionally adversarial beyond the paper's channel model:
the claims it stresses (re-legitimacy from any state, eventual publication
delivery, bounded supervisor load) are exactly the paper's Theorems 8, 17
and 5 — under conditions the proofs never assumed.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.scenarios.spec import PartitionSpec, PhaseSpec, ScenarioSpec


def flash_crowd() -> ScenarioSpec:
    """A viral event: membership doubles in a burst, then half the crowd
    leaves again.  Stresses label assignment and ring growth/shrinkage."""
    return ScenarioSpec(
        name="flash-crowd",
        description="burst of joins doubles the membership, then mass leaves",
        subscribers=12,
        topics=("breaking",),
        phases=(
            PhaseSpec(name="surge", rounds=24, joins=12, publications=4),
            PhaseSpec(name="exodus", rounds=24, leaves=10, publications=4),
        ),
    )


def lossy_network() -> ScenarioSpec:
    """10 % message loss plus 5 % duplication while a publication stream
    runs.  Flooding loses copies; anti-entropy must repair the gaps."""
    return ScenarioSpec(
        name="lossy-network",
        description="10% loss + 5% duplication under a publication stream",
        subscribers=12,
        topics=("feed",),
        phases=(
            PhaseSpec(name="lossy", rounds=30, loss_rate=0.10,
                      duplicate_rate=0.05, publications=8),
        ),
    )


def rolling_partition() -> ScenarioSpec:
    """Two successive partitions isolate different member subsets, each with
    a scheduled heal; publications issued mid-partition must still converge
    everywhere after the heals."""
    return ScenarioSpec(
        name="rolling-partition",
        description="successive partitions with scheduled heals, pubs mid-cut",
        subscribers=14,
        topics=("ledger",),
        phases=(
            PhaseSpec(name="first-cut", rounds=20, publications=4,
                      partition=PartitionSpec(name="east", fraction=0.3,
                                              heal_after_rounds=12)),
            PhaseSpec(name="second-cut", rounds=20, publications=4,
                      partition=PartitionSpec(name="west", fraction=0.4,
                                              heal_after_rounds=12)),
        ),
    )


def pub_storm_under_churn() -> ScenarioSpec:
    """A publication storm while members join, leave and crash concurrently —
    the overlay never gets a quiet moment to disseminate in."""
    return ScenarioSpec(
        name="pub-storm-under-churn",
        description="publication storm with concurrent join/leave/crash churn",
        subscribers=14,
        topics=("alerts", "metrics"),
        phases=(
            PhaseSpec(name="storm", rounds=30, joins=4, leaves=3, crashes=2,
                      publications=16),
        ),
    )


def mass_crash_recovery() -> ScenarioSpec:
    """A 40 % instantaneous crash wave (Section 3.3's failure model at
    scale), followed by a lossy aftershock phase."""
    return ScenarioSpec(
        name="mass-crash-recovery",
        description="40% crash wave, then churn under 5% loss",
        subscribers=16,
        topics=("ops",),
        phases=(
            PhaseSpec(name="wave", rounds=16, crash_fraction=0.4,
                      publications=3),
            PhaseSpec(name="aftershock", rounds=20, loss_rate=0.05, joins=3,
                      crashes=1, publications=3),
        ),
    )


def sharded_supervisor_failover() -> ScenarioSpec:
    """Cluster facade: one of four supervisor shards crashes while the links
    are lossy; its topics must rebalance and reconverge on the survivors."""
    return ScenarioSpec(
        name="sharded-supervisor-failover",
        description="4-shard cluster loses a supervisor under 5% loss",
        facade="sharded",
        shards=4,
        subscribers=16,
        topics=("t0", "t1", "t2", "t3"),
        phases=(
            PhaseSpec(name="failover", rounds=24, crash_supervisor=True,
                      loss_rate=0.05, publications=4),
        ),
    )


def delay_storm() -> ScenarioSpec:
    """An 8× delay spike (congestion) with duplication: messages arrive very
    late, out of order and sometimes twice — but never infinitely late, so
    all guarantees must still hold."""
    return ScenarioSpec(
        name="delay-storm",
        description="8x delay spike + 10% duplication congestion window",
        subscribers=12,
        topics=("stream",),
        phases=(
            PhaseSpec(name="congestion", rounds=24, delay_spike_factor=8.0,
                      duplicate_rate=0.10, publications=6),
        ),
    )


#: name -> spec factory; ordered for ``--list`` output.
SCENARIOS: Dict[str, Callable[[], ScenarioSpec]] = {
    "flash-crowd": flash_crowd,
    "lossy-network": lossy_network,
    "rolling-partition": rolling_partition,
    "pub-storm-under-churn": pub_storm_under_churn,
    "mass-crash-recovery": mass_crash_recovery,
    "sharded-supervisor-failover": sharded_supervisor_failover,
    "delay-storm": delay_storm,
}


def get_scenario(name: str) -> ScenarioSpec:
    """Build the named scenario spec, with a helpful error on typos."""
    factory = SCENARIOS.get(name)
    if factory is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}")
    return factory()
