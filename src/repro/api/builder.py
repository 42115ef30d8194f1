"""Build facades from :class:`~repro.api.spec.SystemSpec` — functionally or
fluently.

Functional::

    from repro.api import SystemSpec, build_system, build_stable

    system = build_system(SystemSpec(topology="sharded", shards=4, seed=7))
    system, peers = build_stable(SystemSpec(seed=7), n=16)

Fluent::

    from repro.api import PubSub

    cluster = PubSub.builder().sharded(4).seed(7).build()
    system, peers = PubSub.builder().seed(3).params(enable_flooding=False) \\
                          .build_stable(n=12)

Both paths return a :class:`~repro.core.facade.PubSubFacadeBase` subclass
chosen by the spec's topology; drivers never name concrete facade classes.
The built facade keeps its spec at ``system.spec`` for reporting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.api.spec import SystemSpec
from repro.cluster.sharded import ShardedPubSub
from repro.core.config import ProtocolParams
from repro.core.facade import PubSubFacadeBase
from repro.core.subscriber import Subscriber
from repro.core.system import SupervisedPubSub
from repro.sim.engine import SimulatorConfig


def build_system(spec: SystemSpec) -> PubSubFacadeBase:
    """Build the facade ``spec`` describes (no subscribers, not stabilized)."""
    config = spec.sim_config()
    if spec.topology == "sharded":
        system: PubSubFacadeBase = ShardedPubSub(
            shards=spec.shards, params=spec.params, sim_config=config,
            virtual_nodes=spec.virtual_nodes)
    else:
        system = SupervisedPubSub(params=spec.params, sim_config=config)
    system.spec = spec
    if spec.telemetry:
        # The histogram half lives in the simulator (enabled via
        # config.telemetry); the recorder half hooks the facade's registry.
        from repro.telemetry.recorder import TelemetryRecorder
        system.telemetry = TelemetryRecorder(system)
    return system


def build_stable(spec: SystemSpec, n: int = 16, *,
                 topic: Optional[str] = None,
                 topics: Optional[Sequence[str]] = None,
                 subscribers_per_topic: Optional[int] = None,
                 max_rounds: Optional[int] = None,
                 ) -> Tuple[PubSubFacadeBase, List[Subscriber]]:
    """Build the system ``spec`` describes, populate it and run it to a
    legitimate state.  The one stable-bootstrap helper both facades share.

    Two population shapes:

    * ``build_stable(spec, n)`` — ``n`` subscribers on ``topic`` (default:
      the params' default topic), stabilized;
    * ``build_stable(spec, topics=[...], subscribers_per_topic=k)`` —
      ``k`` subscribers per topic, each topic stabilized in order (the shape
      sharded clusters want).  ``subscribers_per_topic`` is required with
      ``topics`` (``n`` plays no role in that shape, so nothing is inferred
      from it silently).

    Returns ``(system, subscribers)`` with subscribers in creation order.
    Raises ``RuntimeError`` if any topic fails to stabilize within
    ``max_rounds`` (default: ``spec.max_rounds``) timeout periods — that
    would indicate a protocol bug, and the experiments rely on it.
    """
    if topics is not None and topic is not None:
        raise ValueError("pass either topic or topics, not both")
    system = build_system(spec)
    budget = spec.max_rounds if max_rounds is None else max_rounds
    subscribers: List[Subscriber] = []
    if topics is None:
        wanted = [topic or system.params.default_topic]
        subscribers.extend(system.add_subscriber(wanted[0]) for _ in range(n))
    else:
        wanted = list(topics)
        if not wanted:
            raise ValueError("topics must not be empty")
        if subscribers_per_topic is None:
            raise ValueError(
                "subscribers_per_topic is required when topics is given")
        for t in wanted:
            subscribers.extend(system.add_subscriber(t)
                               for _ in range(subscribers_per_topic))
    for t in wanted:
        if not system.run_until_legitimate(
                t, max_rounds=budget,
                check_every_rounds=spec.check_every_rounds):
            raise RuntimeError(
                f"system did not stabilize topic {t!r} with "
                f"{len(subscribers)} subscribers within {budget} rounds")
    return system, subscribers


class SystemBuilder:
    """Fluent builder accumulating a :class:`SystemSpec`.

    Every step returns the builder; :meth:`spec` yields the frozen spec,
    :meth:`build` / :meth:`build_stable` realise it.
    """

    def __init__(self, spec: Optional[SystemSpec] = None) -> None:
        self._spec = spec or SystemSpec()

    # ---------------------------------------------------------------- topology
    def sharded(self, shards: int,
                virtual_nodes: Optional[int] = None) -> "SystemBuilder":
        overrides = {"topology": "sharded", "shards": shards}
        if virtual_nodes is not None:
            overrides["virtual_nodes"] = virtual_nodes
        self._spec = self._spec.with_overrides(**overrides)
        return self

    # ------------------------------------------------------------------- knobs
    def seed(self, seed: int) -> "SystemBuilder":
        self._spec = self._spec.with_overrides(seed=seed)
        return self

    def telemetry(self, enabled: bool = True) -> "SystemBuilder":
        """Toggle run-wide telemetry (latency histograms + phase spans; see
        :mod:`repro.telemetry`).  Costs one histogram bucket increment per
        delivery; report bytes stay deterministic either way."""
        self._spec = self._spec.with_overrides(telemetry=enabled)
        return self

    def params(self, params: Optional[ProtocolParams] = None,
               **overrides: object) -> "SystemBuilder":
        """Set protocol params wholesale and/or override individual fields."""
        base = params or self._spec.params
        if overrides:
            base = base.with_overrides(**overrides)
        self._spec = self._spec.with_overrides(params=base)
        return self

    def sim(self, config: Optional[SimulatorConfig] = None,
            **overrides: object) -> "SystemBuilder":
        """Set simulator knobs (seed/telemetry stay governed by the spec)."""
        base = config if config is not None else \
            (self._spec.sim or SimulatorConfig())
        if overrides:
            from dataclasses import replace
            base = replace(base, **overrides)
        self._spec = self._spec.with_overrides(sim=base)
        return self

    def max_rounds(self, rounds: int) -> "SystemBuilder":
        self._spec = self._spec.with_overrides(max_rounds=rounds)
        return self

    def check_every_rounds(self, rounds: int) -> "SystemBuilder":
        self._spec = self._spec.with_overrides(check_every_rounds=rounds)
        return self

    # ----------------------------------------------------------------- realise
    def spec(self) -> SystemSpec:
        """The accumulated (frozen, JSON-round-trippable) spec."""
        return self._spec

    def build(self) -> PubSubFacadeBase:
        return build_system(self._spec)

    def build_stable(self, n: int = 16, **kwargs: object
                     ) -> Tuple[PubSubFacadeBase, List[Subscriber]]:
        return build_stable(self._spec, n, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SystemBuilder({self._spec!r})"


class PubSub:
    """Entry point of the unified API: ``PubSub.builder()`` /
    ``PubSub.from_spec(spec)``."""

    @staticmethod
    def builder() -> SystemBuilder:
        return SystemBuilder()

    @staticmethod
    def from_spec(spec: SystemSpec) -> PubSubFacadeBase:
        return build_system(spec)

    @staticmethod
    def from_json(text: str) -> PubSubFacadeBase:
        return build_system(SystemSpec.from_json(text))
