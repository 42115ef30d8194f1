"""Discrete-event simulation substrate for asynchronous message-passing protocols.

The paper's computational model (Section 1.1) assumes:

* peers communicate by placing messages into unbounded channels,
* messages are never lost or duplicated but may be delivered out of order
  (non-FIFO) with unbounded but finite delay (*fair message receipt*),
* every node has a ``Timeout`` action that is executed infinitely often
  (*weakly fair action execution*), and
* the initial state is arbitrary (corrupted variables and channels).

:mod:`repro.sim` provides a seeded, deterministic discrete-event simulator that
realises exactly this model: :class:`~repro.sim.engine.Simulator` drives
periodic timeouts and delivers messages — each one tuple, its own delivery
event — with randomised delays drawn from a seeded RNG,
:class:`~repro.sim.network.Network` holds the link policy, the crashed set
and the message accounting, :class:`~repro.sim.node.ProtocolNode` is the
base class for protocol participants, and :mod:`repro.sim.failure` is the
supervisor-side oracle failure detector used in Section 3.3 of the paper
(crashes are injected with :meth:`~repro.sim.engine.Simulator.crash_node`).
"""

from repro.sim.engine import Simulator, SimulatorConfig
from repro.sim.network import Network, ChannelStats
from repro.sim.node import ProtocolNode, NodeRef
from repro.sim.failure import FailureDetector
from repro.sim.scheduler import TimeoutWheelScheduler, auto_bucket_width
from repro.sim.tracing import Tracer, TraceEvent
from repro.sim.rng import derive_rng, derive_seed


__all__ = [
    "Simulator",
    "SimulatorConfig",
    "TimeoutWheelScheduler",
    "auto_bucket_width",
    "Network",
    "ChannelStats",
    "ProtocolNode",
    "NodeRef",
    "FailureDetector",
    "Tracer",
    "TraceEvent",
    "derive_rng",
    "derive_seed",
]
