"""Channels and message bookkeeping for the asynchronous network model.

The paper models the network as one unbounded channel ``v.Ch`` per node: a
multiset of in-flight messages that are never lost or duplicated but may be
delivered in any order and after any finite delay.  Here an in-flight message
is one thing only: a *record* tuple that is its own delivery event and lives
in the simulator's scheduler until it fires (layout below) — whether a node
sent it, a link adversary duplicated it or a corrupted initial state injected
it.  ``v.Ch`` is therefore the pending records addressed to ``v``.
:class:`Network` holds the link adversary the engine's send path consults,
keeps the message accounting — :class:`ChannelStats`, one
``action -> {node: count}`` store per direction, read by the supervisor-load
and congestion experiments — and the set of crashed nodes, messages to which are
dropped (the paper's Section 3.3 failure model: a crashed node's address
ceases to exist, so messages to it "do not invoke any action").

Beyond the paper's model the network accepts an optional **link adversary**
(:meth:`Network.install_adversary`): a seeded policy object that may drop,
duplicate or delay-spike messages and sever links along named partitions.
The scenario subsystem (:mod:`repro.scenarios`) uses it to stress
self-stabilization under conditions the paper's channel never exhibits.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional


#: Drop-accounting reasons used by :meth:`ChannelStats.record_drop`.
DROP_TO_CRASHED = "to_crashed"      #: destination address ceased to exist
DROP_ADVERSARY_LOSS = "adversary_loss"  #: probabilistic link-level loss
DROP_PARTITION = "partition"        #: link severed by an active partition
DROP_REASONS = (DROP_TO_CRASHED, DROP_ADVERSARY_LOSS, DROP_PARTITION)


# -------------------------------------------------------------------- records
# A message has one form between its send and its handler: a plain tuple
# (building one costs ~1/5th of a slotted object plus its field writes, and
# the per-message hot path touches every field at most once).  A record is
# the *scheduler event* itself:
#
#     (deliver_time, seq, kind, dest, action, params, topic, sender, send_time)
#
# The first three positions match the scheduler's ``(time, seq, kind, ...)``
# event layout (``seq`` is unique, so tuple comparison never reads past it and
# mixed 4-/9-tuples order correctly); the tail is the row the engine's drain
# consumes in place.  A record lives *only* in the scheduler until its
# delivery event fires — every send (with or without a link adversary; a
# duplicate is a second record sharing the params dict) and every injected
# corruption (``sender`` is ``None``).  "Is the record still deliverable?" is
# a crashed-set test, so the channel ``v.Ch`` is the scheduler's records to
# ``v`` while ``v`` is not crashed.  Index constants are shared with the
# engine's fused loops.
REC_DELIVER_TIME = 0
REC_SEQ = 1
REC_KIND = 2
REC_DEST = 3
REC_ACTION = 4
REC_PARAMS = 5
REC_TOPIC = 6
REC_SENDER = 7
REC_SEND_TIME = 8

#: The scheduler event kind marking a fast-delivery record (canonical here;
#: the engine's ``_DELIVER_FAST`` aliases it).  Only 9-tuple records carry
#: it, so ``event[REC_KIND] == FAST_RECORD_KIND`` identifies records inside
#: a mixed scheduler backlog without a length check.
FAST_RECORD_KIND = 4


class ChannelStats:
    """Aggregated message statistics, queryable per node and per action.

    One store per direction: ``_sent`` and ``_received`` each map
    ``action -> {node: count}`` (keyed by sender, respectively destination).
    Recording is inlined where the messages are — the engine's send closure
    and drain loop, and :meth:`Network.pop_record` — and costs one lookup in
    a handful-sized action dict and one counter update in that action's node
    dict.  Every total is computed from the two stores when read —
    :attr:`total_sent`, :attr:`total_delivered`, the per-node and per-action
    totals behind :meth:`sent_by` / :meth:`received_by` and the
    :attr:`sent_by_action` / :attr:`received_by_action` views: every reader
    is cold (reports, phase deltas, tests), so the write path keeps no
    running tally beside the stores.  An action with no count in a store
    never appears in a view or a summary.

    The two view properties are read-only and return fresh :class:`Counter`
    copies: mutating a returned counter never corrupts the statistics.

    Drops are accounted **per reason** (see :data:`DROP_REASONS`): a message
    addressed to a crashed node is a different animal than one swallowed by a
    :class:`~repro.scenarios.adversary.LinkAdversary` (probabilistic loss) or
    severed by an active partition, and lossy-scenario reports need to tell
    them apart.  Like sends and deliveries, drop counts flow through
    :meth:`snapshot` / :meth:`delta`, so differential per-phase accounting
    sees them.
    """

    __slots__ = ("_sent", "_received", "_drops", "duplicated", "delivery_latency")

    def __init__(self) -> None:
        #: action -> {sender: count} and action -> {dest: count}; never
        #: rebound, so the engine's fused closures capture them once
        self._sent: Dict[str, Dict[Any, int]] = {}
        self._received: Dict[str, Dict[Any, int]] = {}
        #: drop reason -> count (see DROP_REASONS)
        self._drops: Dict[str, int] = {}
        #: extra copies created by adversarial duplication
        self.duplicated = 0
        #: optional :class:`~repro.telemetry.histogram.LatencyHistogram` of
        #: send→delivery latency in sim seconds.  ``None`` (the default)
        #: keeps the hot paths latency-blind; :meth:`enable_latency` turns it
        #: on (``build_system`` does so for a ``telemetry=True`` spec).
        self.delivery_latency = None

    def enable_latency(self) -> None:
        """Attach a delivery-latency histogram (idempotent)."""
        if self.delivery_latency is None:
            from repro.telemetry.histogram import LatencyHistogram
            self.delivery_latency = LatencyHistogram()

    # -------------------------------------------------------------- recording
    def record_drop(self, reason: str = DROP_TO_CRASHED) -> None:
        """Account one dropped message under ``reason`` (a :data:`DROP_REASONS`
        name)."""
        if reason not in DROP_REASONS:
            raise ValueError(
                f"unknown drop reason {reason!r}; expected one of {DROP_REASONS}")
        self._drops[reason] = self._drops.get(reason, 0) + 1

    # ------------------------------------------------------------------- drops
    @property
    def drops_by_reason(self) -> Dict[str, int]:
        """Drop reason -> count (a copy; every known reason is present)."""
        return {reason: self._drops.get(reason, 0) for reason in DROP_REASONS}

    @property
    def total_dropped(self) -> int:
        return sum(self._drops.values())

    # ---------------------------------------------------------------- queries
    @property
    def total_sent(self) -> int:
        return _total(self._sent)

    @property
    def total_delivered(self) -> int:
        return _total(self._received)

    @property
    def sent_by_action(self) -> Counter:
        return _per_action(self._sent)

    @property
    def received_by_action(self) -> Counter:
        return _per_action(self._received)

    def received_by(self, node_id: int, action: Optional[str] = None) -> int:
        """Number of messages delivered to ``node_id`` (optionally one action)."""
        return _per_node(self._received, node_id, action)

    def sent_by(self, node_id: int, action: Optional[str] = None) -> int:
        """Number of messages sent by ``node_id`` (optionally one action)."""
        return _per_node(self._sent, node_id, action)

    def to_summary_dict(self) -> Dict[str, object]:
        """A JSON-safe summary of the statistics (totals, per-action sends,
        per-reason drops) — the shape :class:`~repro.api.report.RunReport`
        embeds as a message-stat snapshot.

        A ``"delivery_latency"`` block is appended exactly when a latency
        histogram is attached, so summaries of telemetry-off runs keep their
        historical keys byte-for-byte.
        """
        out: Dict[str, object] = {
            "total_sent": self.total_sent,
            "total_delivered": self.total_delivered,
            "total_dropped": self.total_dropped,
            "duplicated": self.duplicated,
            "drops_by_reason": {reason: count
                                for reason, count in sorted(self._drops.items())},
            "sent_by_action": dict(sorted(self.sent_by_action.items())),
            "received_by_action": dict(sorted(self.received_by_action.items())),
        }
        if self.delivery_latency is not None:
            out["delivery_latency"] = self.delivery_latency.summary()
        return out

    def snapshot(self) -> "ChannelStats":
        """Return a deep copy usable as a baseline for differential counting."""
        clone = ChannelStats()
        # a copy, not a payload: each inner dict is copied in its own order
        clone._sent = {action: dict(by_node) for action, by_node in self._sent.items()}
        clone._received = {action: dict(by_node) for action, by_node in self._received.items()}
        clone._drops = dict(self._drops)
        clone.duplicated = self.duplicated
        if self.delivery_latency is not None:
            clone.delivery_latency = self.delivery_latency.copy()
        return clone

    def delta(self, baseline: "ChannelStats") -> "ChannelStats":
        """Return the difference ``self - baseline`` (counter-wise).  When
        both sides carry a latency histogram the delta carries the bucket
        difference too (differential per-phase latency accounting)."""
        diff = ChannelStats()
        diff._sent = _store_delta(self._sent, baseline._sent)
        diff._received = _store_delta(self._received, baseline._received)
        diff._drops = _dict_delta(self._drops, baseline._drops)
        diff.duplicated = self.duplicated - baseline.duplicated
        if (self.delivery_latency is not None
                and baseline.delivery_latency is not None):
            diff.delivery_latency = self.delivery_latency.delta(
                baseline.delivery_latency)
        elif self.delivery_latency is not None:
            diff.delivery_latency = self.delivery_latency.copy()
        return diff


def _total(store: Dict[str, Dict[Any, int]]) -> int:
    """The count of every message in a store."""
    return sum(sum(by_node.values()) for by_node in store.values())


def _per_action(store: Dict[str, Dict[Any, int]]) -> Counter:
    """Action -> total count of a store, as a fresh :class:`Counter`."""
    return Counter({action: sum(by_node.values()) for action, by_node in store.items()})


def _per_node(store: Dict[str, Dict[Any, int]], node_id: Any,
              action: Optional[str]) -> int:
    """``node_id``'s count in a store: for one action, or over all of them."""
    if action is not None:
        return store.get(action, {}).get(node_id, 0)
    return sum(by_node.get(node_id, 0) for by_node in store.values())


def _dict_delta(current: Dict, baseline: Dict) -> Dict:
    """Key-wise ``current - baseline``, keeping only positive entries (matching
    the semantics of ``Counter`` subtraction on monotonically growing counts)."""
    out = {}
    for key, count in current.items():
        remaining = count - baseline.get(key, 0)
        if remaining > 0:
            out[key] = remaining
    return out


def _store_delta(current: Dict[str, Dict[Any, int]],
                 baseline: Dict[str, Dict[Any, int]]) -> Dict[str, Dict[Any, int]]:
    """:func:`_dict_delta` per action, leaving out an action with no traffic
    in the window (a zero entry would surface in the summary views)."""
    out = {}
    for action, by_node in current.items():
        remaining = _dict_delta(by_node, baseline.get(action, {}))
        if remaining:
            out[action] = remaining
    return out


class Network:
    """Link policy, crash set and accounting of the asynchronous network.

    The network holds no message: every in-flight record lives in the
    :class:`~repro.sim.engine.Simulator`'s scheduler.  The simulator's send
    path (``_send_fast``, one call per batch) counts each send in
    :attr:`stats`' per-action store, drops it if
    the destination crashed and asks :attr:`adversary` which copies survive;
    its drain loop delivers records (fusing what :meth:`pop_record` spells
    out).

    A ``dest`` that cannot be an address — unhashable: a forged list, dict or
    set where a node ref belongs — is an address that does not exist.  The send
    is counted, then dropped as ``to_crashed`` exactly once, by whichever
    looks the address up first: the send path (under an adversary or with
    some node crashed) or :meth:`pop_record` (when the record comes due; the
    drain loop calls it for every ``dest`` that is not an ``int``).  It is
    never delivered or shown to an adversary.
    """

    __slots__ = ("stats", "_crashed", "adversary")

    def __init__(self) -> None:
        self.stats = ChannelStats()
        self._crashed: dict[int, None] = {}  # a dict: ``{1} in set()`` does not raise
        #: optional link-level adversary (duck-typed; see
        #: :class:`repro.scenarios.adversary.LinkAdversary`).  ``None`` keeps
        #: the paper's fault model: no loss, no duplication, finite delays.
        self.adversary = None

    # ------------------------------------------------------------------ admin
    def install_adversary(self, adversary) -> None:
        """Install (or with ``None``, remove) a link adversary.

        The adversary is consulted on sends to a live address (loss,
        duplication, delay spikes, send-time partition checks) and on
        deliveries (partition checks for messages already in flight when a
        partition started).  It must expose ``on_submit(sender, dest, now)``
        returning ``None`` (untouched) or a verdict with ``drop_reason``,
        ``duplicates`` and ``delay_factor``
        (:class:`~repro.scenarios.adversary.LinkVerdict`), and
        ``on_deliver(sender, dest, now)`` returning a drop-reason string or
        ``None``; the hooks are called in event order (``now`` never moves
        backward).  Two attributes say where they can act: while ``idle`` is
        true, ``on_submit`` would answer ``None`` and draw nothing, and the
        send path (which reads it once per batch) skips it; while
        ``partitions`` is empty, the drain skips ``on_deliver``.
        """
        self.adversary = adversary

    def mark_crashed(self, node_id: int) -> None:
        """Record ``node_id`` as crashed: records in flight to it are never
        delivered (silently — they leave its channel at once) and future
        messages to it are dropped at send time."""
        self._crashed[node_id] = None

    # -------------------------------------------------------------- delivery
    def pop_record(self, record: tuple) -> bool:
        """Account the delivery of ``record`` — the reference the engine's
        fused drain branch is pinned against (the per-event reference,
        ``reference_step`` in ``tests/conftest.py``, uses it; the drain calls
        it only for a ``dest`` that is not an ``int``).

        Returns ``True`` if the record was still pending and is now accounted
        as delivered; ``False`` if the destination crashed after the send or
        the installed adversary vetoed delivery (a partition that started
        with the record in flight).

        Records live only in the scheduler, so "still pending?" is a
        crashed-set test.
        """
        try:
            if record[REC_DEST] in self._crashed:
                return False
        except TypeError:  # no such address (see the class docstring)
            self.stats.record_drop(DROP_TO_CRASHED)
            return False
        adversary = self.adversary
        if adversary is not None:
            reason = adversary.on_deliver(record[REC_SENDER], record[REC_DEST],
                                          record[REC_DELIVER_TIME])
            if reason is not None:
                self.stats.record_drop(reason)
                return False
        stats = self.stats
        if stats.delivery_latency is not None:
            stats.delivery_latency.record(
                record[REC_DELIVER_TIME] - record[REC_SEND_TIME])
        by_dest = stats._received.setdefault(record[REC_ACTION], {})
        by_dest[record[REC_DEST]] = by_dest.get(record[REC_DEST], 0) + 1
        return True
