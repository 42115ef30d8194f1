"""High-level facade: a complete supervised publish-subscribe system.

:class:`SupervisedPubSub` wires together the simulator, one supervisor and any
number of subscribers, and exposes the operations a user of the system cares
about (subscribe, unsubscribe, publish, crash) together with the
state-inspection helpers the experiments need (legitimacy checks, convergence
driving, message accounting).  All machinery that does not depend on having a
*single* supervisor lives in :class:`repro.core.facade.PubSubFacadeBase`,
which is shared with the sharded cluster facade
(:class:`repro.cluster.sharded.ShardedPubSub`).

Example
-------
>>> from repro import SupervisedPubSub
>>> system = SupervisedPubSub(seed=7)
>>> peers = [system.add_subscriber() for _ in range(8)]
>>> system.run_until_legitimate()
True
>>> pub = system.publish(peers[0], b"hello world")
>>> system.run_rounds(30)
>>> system.all_subscribers_have(pub.key)
True
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import ProtocolParams
from repro.core.facade import PubSubFacadeBase
from repro.core.subscriber import Subscriber
from repro.core.supervisor import Supervisor
from repro.sim.engine import SimulatorConfig
from repro.sim.node import NodeRef

#: The supervisor's well-known (hard-coded) node id.
SUPERVISOR_ID: NodeRef = 0


class SupervisedPubSub(PubSubFacadeBase):
    """A supervisor plus a dynamic set of subscribers on one simulator."""

    def __init__(self, seed: int = 0, params: Optional[ProtocolParams] = None,
                 sim_config: Optional[SimulatorConfig] = None) -> None:
        super().__init__(seed=seed, params=params, sim_config=sim_config,
                         first_subscriber_id=SUPERVISOR_ID + 1)
        self.supervisor = Supervisor(SUPERVISOR_ID, params=self.params)
        self.sim.add_node(self.supervisor)

    # ----------------------------------------------------- facade base contract
    def supervisor_of(self, topic: str) -> Supervisor:
        return self.supervisor

    def supervisor_node_ids(self) -> List[NodeRef]:
        return [SUPERVISOR_ID]

    def _new_subscriber(self, node_id: NodeRef) -> Subscriber:
        return Subscriber(node_id, SUPERVISOR_ID, params=self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SupervisedPubSub(n={len(self.subscribers)}, "
                f"topics={self.registry.topics()}, t={self.sim.now:.1f})")
