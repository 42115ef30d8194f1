"""Built-in demonstration sweeps for ``python -m repro sweep`` and experiment E13.

Each entry is a ``seed -> SweepSpec`` factory sized to run in well under a
minute, so the demos double as CI smoke coverage of the execution layer.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.api.spec import SystemSpec
from repro.exec.sweep import SweepSpec


def e13_loss_shards(seed: int = 0) -> SweepSpec:
    """The E13 campaign: a loss-rate × shard-count grid of synthesized
    disruption windows — does sharding the control plane survive lossy
    links and churn as well as the single supervisor does?"""
    return SweepSpec(
        name="e13-loss-shards",
        base=SystemSpec(seed=seed),
        n_nodes=(12,),
        shards=(1, 4),
        loss_rates=(0.0, 0.1),
        publications=6,
        joins=3,
        crashes=2,
    )


def scenario_replicates(seed: int = 0) -> SweepSpec:
    """Three seed replicates of the ``lossy-network`` library scenario —
    the smallest useful statistical sweep."""
    return SweepSpec(
        name="scenario-replicates",
        base=SystemSpec(seed=seed),
        scenarios=("lossy-network",),
        seeds=3,
    )


#: name -> sweep factory; ordered for ``python -m repro sweep --list``.
DEMO_SWEEPS: Dict[str, Callable[[int], SweepSpec]] = {
    "e13-loss-shards": e13_loss_shards,
    "scenario-replicates": scenario_replicates,
}


def get_demo_sweep(name: str, seed: int = 0) -> SweepSpec:
    """Build the named demo sweep, with a helpful error on typos."""
    factory = DEMO_SWEEPS.get(name)
    if factory is None:
        raise KeyError(f"unknown demo sweep {name!r}; "
                       f"available: {', '.join(DEMO_SWEEPS)}")
    return factory(seed)
