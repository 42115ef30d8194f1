"""Declarative deployment specification for the pub-sub system.

A :class:`SystemSpec` is the single front door to every way of standing the
system up: the paper's single-supervisor topology, the sharded K-supervisor
cluster, any :class:`~repro.core.config.ProtocolParams`
and any :class:`~repro.sim.engine.SimulatorConfig` — all in one frozen
value that serializes through the artifact codec (:mod:`repro.artifact`).
Experiments, scenarios, the benchmark and examples describe a system as a
spec and realise it with :func:`~repro.api.builder.build_system`.

The spec also canonicalises the driver budgets that used to be restated as
magic numbers all over the tree: :attr:`SystemSpec.max_rounds` and
:attr:`SystemSpec.check_every_rounds` default to
:data:`~repro.core.config.DEFAULT_MAX_ROUNDS` /
:data:`~repro.core.config.DEFAULT_CHECK_EVERY_ROUNDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.artifact import Artifact
from repro.core.config import (
    DEFAULT_CHECK_EVERY_ROUNDS,
    DEFAULT_MAX_ROUNDS,
    ProtocolParams,
    require_int_fields,
)
from repro.sim.engine import SimulatorConfig

#: Topology selector values accepted by :attr:`SystemSpec.topology`.
TOPOLOGIES = ("single", "sharded")


@dataclass(frozen=True)
class SystemSpec(Artifact):
    """A complete, declarative description of one deployable system.

    Attributes
    ----------
    topology:
        ``"single"`` is the paper's one supervisor; ``"sharded"`` runs
        :attr:`shards` supervisors.  Both build
        :class:`~repro.core.facade.SupervisedPubSub` with :attr:`shards`
        supervisors; the field stays because serialized specs carry it.
    shards:
        Number of supervisor shards (must be 1 for the single topology).
    seed:
        Master seed for all randomness.  A spec never carries two competing
        seeds: a ``sim`` whose ``seed`` differs from the default is
        *inherited* when :attr:`seed` is left at its default, and a
        ``ValueError`` is raised when both are set explicitly but disagree —
        never a silent override.
    telemetry:
        Enable run-wide telemetry (:mod:`repro.telemetry`), its one switch:
        :func:`~repro.api.builder.build_system` turns on the network's
        delivery-latency histogram and attaches a
        :class:`~repro.telemetry.recorder.TelemetryRecorder` to the facade
        (``system.telemetry``), whose spans/histograms land in
        ``RunReport.telemetry``.  Off by default — all report bytes are
        untouched; on, the engine's drain loop bumps one histogram slot
        per delivery.
    params:
        Protocol parameters (``None`` means paper defaults).
    sim:
        Extra simulator knobs (delays, jitter, detection lag, tracing).
        ``None`` means defaults.  After construction the stored config is
        canonical: its seed is neutral (it lives on the spec) and an
        all-defaults config collapses to ``None``.
    max_rounds / check_every_rounds:
        Named defaults for the "run until legitimate/converged" drivers —
        the former restated ``2_000`` / ``5`` literals.
    """

    topology: str = "single"
    shards: int = 1
    seed: int = 0
    telemetry: bool = False
    params: ProtocolParams = field(default_factory=ProtocolParams)
    sim: Optional[SimulatorConfig] = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    check_every_rounds: int = DEFAULT_CHECK_EVERY_ROUNDS

    def __post_init__(self) -> None:
        if self.params is None:
            object.__setattr__(self, "params", ProtocolParams())
        super().__post_init__()
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        require_int_fields(self, "shards", "seed", "max_rounds", "check_every_rounds")
        if not isinstance(self.telemetry, bool):
            raise ValueError(f"SystemSpec.telemetry must be a bool, got {self.telemetry!r}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.topology == "single" and self.shards != 1:
            raise ValueError(
                "the single-supervisor topology has exactly one shard; "
                "use topology='sharded' for shards > 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.check_every_rounds < 1:
            raise ValueError("check_every_rounds must be >= 1")
        if self.sim is not None:
            self._reconcile_with_sim()

    def _reconcile_with_sim(self) -> None:
        """Fold the sim config's seed into the spec.

        A seed left at its spec default inherits the sim's value; two
        explicit, disagreeing seeds raise instead of one silently winning.
        The stored config is then neutralised (the seed lives on the spec
        only) and dropped entirely when nothing else differs from the
        defaults — so equality, ``with_overrides`` and the JSON round-trip
        all see one canonical form.
        """
        sim = self.sim
        if self.seed == 0:
            object.__setattr__(self, "seed", sim.seed)
        elif sim.seed not in (0, self.seed):
            raise ValueError(
                f"conflicting seeds: spec seed {self.seed} vs sim.seed "
                f"{sim.seed}; set the seed in one place")
        neutral = replace(sim, seed=0)
        object.__setattr__(self, "sim",
                           None if neutral == SimulatorConfig() else neutral)

    # ----------------------------------------------------------------- derived
    def sim_config(self) -> SimulatorConfig:
        """A fresh :class:`SimulatorConfig` realising this spec (the facade
        copies it again defensively, so sharing the spec is always safe)."""
        base = self.sim if self.sim is not None else SimulatorConfig()
        return replace(base, seed=self.seed)
