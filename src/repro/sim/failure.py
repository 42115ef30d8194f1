"""The supervisor-side oracle failure detector.

Section 3.3 of the paper allows subscribers to crash without warning.  The key
observation there is that a *single* failure detector at the supervisor
suffices: once the supervisor notices a crash it removes the subscriber from
its database, and the periodic database-repair actions restore a legitimate
skip ring over the surviving subscribers.

We model the failure detector as an oracle with a configurable detection lag:
queries about a node that crashed at time ``t`` start returning "crashed" only
at ``t + detection_lag``.  This captures "eventually correct" without
committing to a particular heartbeat implementation (which the paper also does
not specify).
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class FailureDetector:
    """Eventually-correct crash oracle (only the supervisor consults it).

    Parameters
    ----------
    detection_lag:
        Time between a crash and the moment queries start reporting it.
        ``0.0`` gives a perfect detector; larger values model slow detection.
    """

    __slots__ = ("detection_lag", "_crash_times", "_sim")

    def __init__(self, detection_lag: float = 0.0) -> None:
        if detection_lag < 0:
            raise ValueError("detection_lag must be non-negative")
        self.detection_lag = detection_lag
        self._crash_times: Dict[int, float] = {}
        self._sim: Optional["Simulator"] = None

    def attach(self, sim: "Simulator") -> None:
        self._sim = sim

    def notify_crash(self, node_id: int, time: float) -> None:
        """Record that ``node_id`` crashed at ``time`` (called by the simulator)."""
        if node_id not in self._crash_times:
            self._crash_times[node_id] = time

    def suspects(self, node_id: int, now: Optional[float] = None) -> bool:
        """True once the detector has (eventually-correctly) detected the crash:
        ``node_id`` crashed ``detection_lag`` or more before ``now``.  O(1) —
        one lookup of the id's crash time, however many crashes there were.

        ``now`` may be omitted only when the detector is attached to a
        simulator (the normal case — the supervisor queries it mid-run).  A
        detached detector cannot know the current time, so omitting ``now``
        raises instead of silently guessing.

        An id with no node behind it — unhashable, or (for an attached
        detector, which sees the node table) absent from ``sim.nodes`` — is
        a forged ref: like a crashed node's, an address that does not exist
        (the rule :class:`~repro.sim.network.Network` applies to a ``dest``),
        so it is suspected at once.
        """
        try:
            if node_id not in self._crash_times:
                return self._sim is not None and node_id not in self._sim.nodes
        except TypeError:
            return True
        if now is None:
            if self._sim is None:
                raise RuntimeError(
                    "FailureDetector.suspects() needs an explicit now= when the "
                    "detector is not attached to a simulator (attach() was never "
                    "called); a detached detector has no clock to consult")
            now = self._sim.now
        return now >= self._crash_times[node_id] + self.detection_lag
