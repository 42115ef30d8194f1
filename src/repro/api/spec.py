"""Declarative deployment specification for the pub-sub system.

A :class:`SystemSpec` is the single front door to every way of standing the
system up: the paper's single-supervisor topology, the sharded K-supervisor
cluster, any :class:`~repro.core.config.ProtocolParams`
and any :class:`~repro.sim.engine.SimulatorConfig` — all in one frozen,
JSON-round-trippable value (the same pattern
:class:`~repro.scenarios.spec.ScenarioSpec` established for adversarial
phases).  Experiments, scenarios, benchmarks and examples consume specs
instead of naming concrete facade classes, which is what makes future
backends drop-in.

The spec also canonicalises the driver budgets that used to be restated as
magic numbers all over the tree: :attr:`SystemSpec.max_rounds` and
:attr:`SystemSpec.check_every_rounds` default to
:data:`~repro.core.config.DEFAULT_MAX_ROUNDS` /
:data:`~repro.core.config.DEFAULT_CHECK_EVERY_ROUNDS`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Optional

from repro.core.config import (
    DEFAULT_CHECK_EVERY_ROUNDS,
    DEFAULT_MAX_ROUNDS,
    ProtocolParams,
)
from repro.sim.engine import SimulatorConfig

#: Topology selector values accepted by :attr:`SystemSpec.topology`.
TOPOLOGIES = ("single", "sharded")


@dataclass(frozen=True)
class SystemSpec:
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
    virtual_nodes:
        Consistent-hash virtual nodes per shard (sharded topology only).
    seed:
        Master seed for all randomness.  A spec never carries two competing
        seeds: a ``sim`` whose ``seed`` differs from the default is
        *inherited* when :attr:`seed` is left at its default, and a
        ``ValueError`` is raised when both are set explicitly but disagree —
        never a silent override.
    telemetry:
        Enable run-wide telemetry (:mod:`repro.telemetry`): the simulator
        records delivery-latency histograms and the builder attaches a
        :class:`~repro.telemetry.recorder.TelemetryRecorder` to the facade
        (``system.telemetry``), whose spans/histograms land in
        ``RunReport.telemetry``.  Off by default — all report bytes are
        untouched; on, the engine's drain loop records one histogram sample
        per delivery.  Reconciled with :attr:`sim` like :attr:`seed`
        (a ``sim`` with ``telemetry=True`` is inherited; a bool cannot
        conflict).
    params:
        Protocol parameters (``None`` means paper defaults).
    sim:
        Extra simulator knobs (delays, jitter, detection lag, tracing).
        ``None`` means defaults.  After construction the stored config is
        canonical: its seed/telemetry are neutral (they live on the spec)
        and an all-defaults config collapses to ``None``.
    max_rounds / check_every_rounds:
        Named defaults for the "run until legitimate/converged" drivers —
        the former restated ``2_000`` / ``5`` literals.
    """

    topology: str = "single"
    shards: int = 1
    virtual_nodes: int = 64
    seed: int = 0
    telemetry: bool = False
    params: ProtocolParams = field(default_factory=ProtocolParams)
    sim: Optional[SimulatorConfig] = None
    max_rounds: int = DEFAULT_MAX_ROUNDS
    check_every_rounds: int = DEFAULT_CHECK_EVERY_ROUNDS

    #: Class-level aliases of the shared driver defaults, so callers can say
    #: ``SystemSpec.DEFAULT_MAX_ROUNDS`` without importing ``core.config``.
    DEFAULT_MAX_ROUNDS = DEFAULT_MAX_ROUNDS
    DEFAULT_CHECK_EVERY_ROUNDS = DEFAULT_CHECK_EVERY_ROUNDS

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.topology == "single" and self.shards != 1:
            raise ValueError(
                "the single-supervisor topology has exactly one shard; "
                "use topology='sharded' for shards > 1")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.check_every_rounds < 1:
            raise ValueError("check_every_rounds must be >= 1")
        if self.params is None:
            object.__setattr__(self, "params", ProtocolParams())
        elif isinstance(self.params, dict):
            object.__setattr__(self, "params", ProtocolParams(**self.params))
        if isinstance(self.sim, dict):
            object.__setattr__(self, "sim", SimulatorConfig(**self.sim))
        if self.sim is not None:
            self._reconcile_with_sim()

    def _reconcile_with_sim(self) -> None:
        """Fold the sim config's seed/telemetry into the spec.

        A field left at its spec default inherits the sim's value; two
        explicit, disagreeing values raise instead of one silently winning.
        The stored config is then neutralised (seed/telemetry live on the
        spec only) and dropped entirely when nothing else differs from the
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
        if not self.telemetry:
            # Booleans cannot conflict: True on either side simply wins.
            object.__setattr__(self, "telemetry", sim.telemetry)
        neutral = replace(sim, seed=0, telemetry=False)
        object.__setattr__(self, "sim",
                           None if neutral == SimulatorConfig() else neutral)

    # ----------------------------------------------------------------- derived
    def sim_config(self) -> SimulatorConfig:
        """A fresh :class:`SimulatorConfig` realising this spec (the facade
        copies it again defensively, so sharing the spec is always safe)."""
        base = self.sim if self.sim is not None else SimulatorConfig()
        return replace(base, seed=self.seed, telemetry=self.telemetry)

    def build(self) -> Any:
        """Build the facade this spec describes (see
        :func:`repro.api.builder.build_system`)."""
        from repro.api.builder import build_system
        return build_system(self)

    def build_stable(self, n: int = 16, **kwargs: object) -> Any:
        """Build and stabilize (see :func:`repro.api.builder.build_stable`)."""
        from repro.api.builder import build_stable
        return build_stable(self, n, **kwargs)

    # ------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; :meth:`from_dict` inverts it losslessly."""
        return {
            "topology": self.topology,
            "shards": self.shards,
            "virtual_nodes": self.virtual_nodes,
            "seed": self.seed,
            "telemetry": self.telemetry,
            "params": asdict(self.params),
            "sim": asdict(self.sim) if self.sim is not None else None,
            "max_rounds": self.max_rounds,
            "check_every_rounds": self.check_every_rounds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemSpec":
        payload = dict(data)
        params = payload.get("params")
        if isinstance(params, dict):
            payload["params"] = ProtocolParams(**params)
        sim = payload.get("sim")
        if isinstance(sim, dict):
            payload["sim"] = SimulatorConfig(**sim)
        return cls(**payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, **kwargs: object) -> "SystemSpec":
        """A copy with top-level fields replaced."""
        return replace(self, **kwargs)
