"""Base class for protocol participants.

A :class:`ProtocolNode` corresponds to a node ``v`` in the paper's model: it
has a unique read-only identifier ``v.id``, local protocol variables (defined
by subclasses), and two kinds of actions:

* message-triggered actions — a delivered message ``<label>(<params>)``
  invokes the method ``on_<label>`` with the message's parameters, and
* the periodic ``Timeout`` action — :meth:`on_timeout`, scheduled by the
  simulator infinitely often (weak fairness).  ``timeout`` is not an action:
  a message labelled so is received and dropped, like any label no handler
  understands (an arbitrary initial state may put such labels in a channel).

Nodes communicate exclusively through :meth:`send`, which places a message
into the destination's channel.  Node references are plain integers
(:data:`NodeRef`): the protocol only compares, stores and forwards them
(compare-store-send mode, Section 1.1).
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Node references are opaque integers, unique per simulator instance.
NodeRef = int


class ProtocolNode:
    """A single protocol participant attached to a :class:`Simulator`.

    The base class is slotted: simulations hold thousands of nodes and touch
    ``crashed``/``_sim``/``node_id`` on every event, so the base state lives
    in fixed slots.  Subclasses may declare their own ``__slots__`` to stay
    fully slotted (as :class:`~repro.core.subscriber.Subscriber` does) or
    declare none and transparently regain a ``__dict__`` for ad-hoc
    attributes (as the test doubles and baselines do).

    Handler contract: ``on_<Action>(self, **params)``, the message's topic
    folded into ``params`` as ``topic``, found in the class's
    :attr:`_action_handlers` table — the one dispatch rule.  Every
    parameter is message content — in an arbitrary initial state missing,
    extra or garbage — so the protocol's handlers (``Subscriber``,
    ``Supervisor``) take one shape, ``on_Action(self, /, key=None, ...,
    topic=None, **_)``: a missing key means the key set to ``None``, an
    unknown one (``self`` too: it is positional-only) lands in ``**_``, and
    values are validated where they are used.  ``**_`` costs ≈ 20 ns per
    5-key binding (240 → 260 ns, best of 7 × 10⁶ calls, CPython 3.11),
    about 1 % of a steady-state event.
    """

    __slots__ = ("node_id", "crashed", "timeout_count", "_sim")

    #: Class-level action → unbound-handler table, compiled once per subclass
    #: (see :meth:`_compile_action_handlers`): the engine's one lookup per
    #: delivered message.
    _action_handlers: ClassVar[Dict[str, Callable[..., None]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._compile_action_handlers()

    @classmethod
    def _compile_action_handlers(cls) -> None:
        """Precompute the message-dispatch table for this class.

        Every method named ``on_<Action>`` anywhere in the MRO handles the
        action ``<Action>``, except ``on_timeout``; subclass definitions
        shadow base-class ones, as normal attribute lookup would.  A handler
        added to a class after its creation is seen only once this is called
        again.
        """
        table: Dict[str, Callable[..., None]] = {}
        for klass in reversed(cls.__mro__):
            for name, fn in vars(klass).items():
                if name.startswith("on_") and name != "on_timeout" and callable(fn):
                    table[name[3:]] = fn
        cls._action_handlers = table

    def __init__(self, node_id: NodeRef) -> None:
        self.node_id: NodeRef = node_id
        self.crashed: bool = False
        #: number of ``Timeout`` firings, maintained by the simulator
        self.timeout_count: int = 0
        self._sim: Optional["Simulator"] = None

    # ------------------------------------------------------------------ wiring
    def attach(self, sim: "Simulator") -> None:
        """Called by the simulator when the node is registered."""
        self._sim = sim

    @property
    def sim(self) -> "Simulator":
        if self._sim is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a simulator")
        return self._sim

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    # ------------------------------------------------------------------- comms
    def send(self, dest: Optional[NodeRef], action: str, topic: Optional[str] = None,
             **params: Any) -> None:
        """Send ``action(**params)`` to node ``dest``.

        Sending to ``None`` (an unset reference) is a silent no-op, mirroring
        the convention in the paper's pseudocode where calls on ``⊥`` do
        nothing.  Crashed nodes never send.

        The message goes out as a batch of one through the simulator's
        prebound ``_send_fast`` (the one send path), which builds one record
        tuple per accepted copy; the kwargs dict is freshly built by the
        call, so the record takes it uncopied (:meth:`Simulator.inject_message`,
        whose caller keeps its dict, copies).  A sender with several
        messages — a subscriber's Timeout, a flood — hands them over as one
        batch of ``(dest, action, params)`` triples.
        """
        if self.crashed or dest is None:
            return
        sim = self._sim
        if sim is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a simulator")
        sim._send_fast(self.node_id, topic, ((dest, action, params),))

    # ----------------------------------------------------------------- actions
    def on_timeout(self) -> None:
        """Periodic ``Timeout`` action; subclasses override."""

    # ------------------------------------------------------------------- misc
    def crash(self) -> None:
        """Mark this node as crashed; it stops sending and processing."""
        self.crashed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.node_id})"


# Compile the base class's own table (subclasses compile via __init_subclass__).
ProtocolNode._compile_action_handlers()
