"""Build facades from :class:`~repro.api.spec.SystemSpec` — the one way to
stand a system up::

    from repro.api import SystemSpec, build_system, build_stable

    system = build_system(SystemSpec(topology="sharded", shards=4, seed=7))
    system, peers = build_stable(SystemSpec(seed=7), n=16)

Both return a :class:`~repro.core.facade.SupervisedPubSub` with the spec's
shard count (one for the paper's topology).  The built facade keeps its spec
at ``system.spec`` for reporting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.api.spec import SystemSpec
from repro.core.facade import SupervisedPubSub
from repro.core.subscriber import Subscriber


def build_system(spec: SystemSpec) -> SupervisedPubSub:
    """Build the facade ``spec`` describes (no subscribers, not stabilized)."""
    system = SupervisedPubSub(params=spec.params, sim_config=spec.sim_config(),
                              shards=spec.shards)
    system.spec = spec
    if spec.telemetry:
        # Both halves, before any event runs: the network's latency
        # histogram and the recorder hooked to the facade's registry.
        from repro.telemetry.recorder import TelemetryRecorder
        system.sim.network.stats.enable_latency()
        system.telemetry = TelemetryRecorder(system)
    return system


def build_stable(spec: SystemSpec, n: int = 16, *,
                 topic: Optional[str] = None,
                 topics: Optional[Sequence[str]] = None,
                 subscribers_per_topic: Optional[int] = None,
                 max_rounds: Optional[int] = None,
                 ) -> Tuple[SupervisedPubSub, List[Subscriber]]:
    """Build the system ``spec`` describes, populate it and run it to a
    legitimate state.  The one stable-bootstrap helper at every shard count.

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
