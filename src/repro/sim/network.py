"""Channels and message bookkeeping for the asynchronous network model.

The paper models the network as one unbounded channel ``v.Ch`` per node: a
multiset of in-flight messages that are never lost or duplicated but may be
delivered in any order and after any finite delay.  :class:`Network` owns all
channels, assigns delivery delays, keeps per-action and per-node accounting
(used by the supervisor-load and congestion experiments), and drops messages
addressed to crashed nodes (the paper's Section 3.3 failure model: a crashed
node's address ceases to exist, so messages to it "do not invoke any action").

Beyond the paper's model the network accepts an optional **link adversary**
(:meth:`Network.install_adversary`): a seeded policy object that may drop,
duplicate or delay-spike messages and sever links along named partitions.
The scenario subsystem (:mod:`repro.scenarios`) uses it to stress
self-stabilization under conditions the paper's channel never exhibits.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(slots=True)
class Message:
    """A single protocol message of the form ``<label>(<parameters>)``.

    The class is slotted: a 2k-node maintenance round creates hundreds of
    thousands of messages, and dropping the per-instance ``__dict__`` both
    shrinks them and speeds up the attribute traffic on the submit/deliver
    hot path.  Messages are plain data records — nothing may hang ad-hoc
    attributes off them.

    Attributes
    ----------
    action:
        The action label, e.g. ``"Introduce"`` or ``"GetConfiguration"``.
    params:
        Keyword parameters of the action.  Values must be plain data
        (ints, strings, tuples, node ids) so that an adversary can also forge
        them in corrupted initial states.
    sender:
        Node id of the sender, or ``None`` for adversarially injected
        (corrupted) messages present in the initial state.
    dest:
        Node id of the destination channel.
    topic:
        Optional topic identifier (Section 4: every message carries its topic
        so the receiver can dispatch it to the right per-topic protocol
        instance).
    send_time / deliver_time:
        Simulation timestamps.
    corrupted:
        True for messages injected by the adversary rather than produced by
        the protocol; used only for accounting and assertions.
    """

    action: str
    params: Dict[str, Any]
    sender: Optional[int]
    dest: int
    topic: Optional[str] = None
    send_time: float = 0.0
    deliver_time: float = 0.0
    msg_id: int = -1
    corrupted: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = "?" if self.sender is None else self.sender
        return (
            f"Message({self.action}, {src}->{self.dest}, t={self.send_time:.2f}"
            f"->{self.deliver_time:.2f}, params={self.params})"
        )


#: Drop-accounting reasons used by :meth:`ChannelStats.record_drop`.
DROP_TO_CRASHED = "to_crashed"      #: destination address ceased to exist
DROP_ADVERSARY_LOSS = "adversary_loss"  #: probabilistic link-level loss
DROP_PARTITION = "partition"        #: link severed by an active partition
DROP_REASONS = (DROP_TO_CRASHED, DROP_ADVERSARY_LOSS, DROP_PARTITION)


# --------------------------------------------------------------- fast records
# The no-adversary send fast path stores in-flight messages as plain tuples
# instead of Message instances: building one tuple costs ~1/5th of a slotted
# dataclass plus its field writes, and the per-message hot path touches every
# field at most once.  A record is the *scheduler event* itself:
#
#     (deliver_time, seq, kind, dest, action, params, topic, sender,
#      send_time, msg_id)
#
# The first three positions match the scheduler's ``(time, seq, kind, ...)``
# event layout (``seq`` is unique, so tuple comparison never reads past it and
# mixed 4-/10-tuples order correctly); the tail is the row the engine's block
# drain consumes in place.  A record lives *only* in the scheduler until its
# delivery event fires (``msg_id`` stays ``-1``: no channel entry, no counter
# draw on the send path); channels hold only :class:`Message` objects
# (adversarial submits, injected initial-state corruption).  "Is the record
# still deliverable?" is a crashed-set test, and the in-flight introspection
# reads pending records straight out of the scheduler through
# :attr:`Network._pending_records`, materialising them into equivalent
# Message instances, so external consumers never see the tuple form.  Index
# constants are shared with the engine's fused loops.
REC_DELIVER_TIME = 0
REC_SEQ = 1
REC_KIND = 2
REC_DEST = 3
REC_ACTION = 4
REC_PARAMS = 5
REC_TOPIC = 6
REC_SENDER = 7
REC_SEND_TIME = 8
REC_MSG_ID = 9

#: The scheduler event kind marking a fast-delivery record (canonical here;
#: the engine's ``_DELIVER_FAST`` aliases it).  Only 10-tuple records carry
#: it, so ``event[REC_KIND] == FAST_RECORD_KIND`` identifies records inside
#: a mixed scheduler backlog without a length check.
FAST_RECORD_KIND = 4

#: dense-id ceiling for the columnar :class:`ChannelStats` store — node ids
#: at or past this always count through the sparse dict half (bounds any one
#: column at 8 MiB even against a forged id of 10**9; real deployments sit
#: far below it).
_STATS_COLUMN_CAP = 1 << 20


def record_to_message(record: tuple) -> "Message":
    """Materialise a fast-path in-flight record into an equivalent
    :class:`Message` (field-identical to what the pre-record engine stored).

    The params dict is shared, not copied — records own their params exactly
    as Messages do, so in-place topic folding keeps working."""
    return Message(action=record[REC_ACTION], params=record[REC_PARAMS],
                   sender=record[REC_SENDER], dest=record[REC_DEST],
                   topic=record[REC_TOPIC], send_time=record[REC_SEND_TIME],
                   deliver_time=record[REC_DELIVER_TIME],
                   msg_id=record[REC_MSG_ID])


class ChannelStats:
    """Aggregated message statistics, queryable per node and per action.

    The recording hot path (one :meth:`record_send` per submitted message,
    one :meth:`record_delivery` per delivered message) performs a single dict
    update on one ``(node, action)`` table plus an integer increment.  The
    per-node, per-action and per-(node, action) :class:`Counter` views the
    experiments consume are derived lazily on first access and cached until
    the next write, so querying stays as convenient as the eager counters the
    seed kept while the per-message cost is O(1) with a minimal constant.

    The view properties are read-only and return fresh :class:`Counter`
    copies: mutating a returned counter never corrupts the statistics.

    Drops are accounted **per reason** (see :data:`DROP_REASONS`): a message
    addressed to a crashed node is a different animal than one swallowed by a
    :class:`~repro.scenarios.adversary.LinkAdversary` (probabilistic loss) or
    severed by an active partition, and lossy-scenario reports need to tell
    them apart.  Like sends and deliveries, drop counts flow through
    :meth:`snapshot` / :meth:`delta`, so differential per-phase accounting
    sees them.
    """

    __slots__ = ("_sent", "_received", "_sent_cols", "_received_cols",
                 "_drops", "duplicated", "total_sent", "total_delivered",
                 "delivery_latency", "_derived")

    def __init__(self) -> None:
        #: raw (sender-or-None, action) -> count and (dest, action) -> count
        #: — the *sparse* half of the store: non-int / negative node keys and
        #: every count recorded through the Message paths
        self._sent: Dict[tuple, int] = {}
        self._received: Dict[tuple, int] = {}
        #: columnar half (PR 10): ``action -> array('q')`` indexed by dense
        #: node id.  The engine's fused loops bump ``cols[action][node]``
        #: directly — one action-keyed lookup in a handful-sized dict plus an
        #: int64 array store, instead of allocating a ``(node, action)``
        #: tuple and updating a dict that grows to n_nodes x n_actions
        #: entries (the dominant cache miss of large storms).  Columns grow
        #: strictly in place (``array.extend``) so captured references stay
        #: valid; every read-side surface merges both halves, so where a
        #: count landed is unobservable.
        self._sent_cols: Dict[str, "array[int]"] = {}
        self._received_cols: Dict[str, "array[int]"] = {}
        #: drop reason -> count (see DROP_REASONS)
        self._drops: Dict[str, int] = {}
        #: extra copies created by adversarial duplication
        self.duplicated = 0
        self.total_sent = 0
        self.total_delivered = 0
        #: optional :class:`~repro.telemetry.histogram.LatencyHistogram` of
        #: send→delivery latency in sim seconds.  ``None`` (the default)
        #: keeps the hot paths latency-blind; :meth:`enable_latency` turns it
        #: on (``SimulatorConfig.telemetry`` does so at build time).
        self.delivery_latency = None
        #: lazily derived Counter views, invalidated with ``.clear()`` — never
        #: rebound, so the engine's fused closures may capture the dict once.
        self._derived: Dict[str, Counter] = {}

    def enable_latency(self) -> None:
        """Attach a delivery-latency histogram (idempotent)."""
        if self.delivery_latency is None:
            from repro.telemetry.histogram import LatencyHistogram
            self.delivery_latency = LatencyHistogram()

    # -------------------------------------------------------------- recording
    def record_send(self, msg: Message) -> None:
        self.total_sent += 1
        key = (msg.sender, msg.action)
        sent = self._sent
        sent[key] = sent.get(key, 0) + 1
        if self._derived:
            self._derived.clear()

    def record_delivery(self, msg: Message) -> None:
        self.total_delivered += 1
        if self.delivery_latency is not None:
            self.delivery_latency.record(msg.deliver_time - msg.send_time)
        key = (msg.dest, msg.action)
        received = self._received
        received[key] = received.get(key, 0) + 1
        if self._derived:
            self._derived.clear()

    def record_drop(self, reason: str = DROP_TO_CRASHED) -> None:
        """Account one dropped message under ``reason`` (a :data:`DROP_REASONS`
        name)."""
        if reason not in DROP_REASONS:
            raise ValueError(
                f"unknown drop reason {reason!r}; expected one of {DROP_REASONS}")
        self._drops[reason] = self._drops.get(reason, 0) + 1

    def record_duplicate(self, copies: int = 1) -> None:
        """Account ``copies`` extra adversarial duplicates of a sent message."""
        self.duplicated += copies

    # ------------------------------------------------------------------- drops
    @property
    def dropped_to_crashed(self) -> int:
        """Messages dropped because their destination had crashed."""
        return self._drops.get(DROP_TO_CRASHED, 0)

    @property
    def drops_by_reason(self) -> Dict[str, int]:
        """Drop reason -> count (a copy; every known reason is present)."""
        return {reason: self._drops.get(reason, 0) for reason in DROP_REASONS}

    @property
    def total_dropped(self) -> int:
        return sum(self._drops.values())

    # -------------------------------------------------- columnar slow paths
    def _bump_column(self, cols: Dict[str, "array[int]"],
                     table: Dict[tuple, int], node_id: int,
                     action: str) -> None:
        """Create/grow the ``action`` column so ``node_id`` fits, then count
        one event.  The hot loops call this only on their ``KeyError`` /
        ``IndexError`` miss — first sight of an action, or a node id past the
        column's current length.  Growth is in place (``array.extend``) so
        captured column references stay valid.  Ids past
        :data:`_STATS_COLUMN_CAP` land in the sparse ``table`` instead (a
        forged id of 10**9 must not balloon the column)."""
        if node_id >= _STATS_COLUMN_CAP:
            key = (node_id, action)
            table[key] = table.get(key, 0) + 1
            return
        col = cols.get(action)
        if col is None:
            col = cols[action] = array("q")
        if node_id >= len(col):
            # Geometric growth caps a population ramp at O(log n) reallocs;
            # frombytes, not extend — extend(bytes) appends one item per BYTE.
            grow = max(node_id + 1, 2 * len(col)) - len(col)
            col.frombytes(bytes(8 * grow))
        col[node_id] += 1

    @staticmethod
    def _iter_counts(table: Dict[tuple, int], cols: Dict[str, "array[int]"]
                     ) -> Iterator[Tuple[tuple, int]]:
        """Yield ``((node, action), count)`` pairs across both halves of a
        store (sparse dict + dense columns), skipping zero column rows."""
        yield from table.items()
        for action, col in cols.items():
            for node_id, count in enumerate(col):
                if count:
                    yield (node_id, action), count

    def _merged(self, table: Dict[tuple, int], cols: Dict[str, "array[int]"]
                ) -> Dict[tuple, int]:
        """Fold the dense columns of a store into dict form (cold paths:
        snapshot/delta).  Keys colliding across the halves are summed."""
        merged = dict(table)
        for action, col in cols.items():
            for node_id, count in enumerate(col):
                if count:
                    key = (node_id, action)
                    merged[key] = merged.get(key, 0) + count
        return merged

    # ---------------------------------------------------------- derived views
    def _view(self, name: str) -> Counter:
        view = self._derived.get(name)
        if view is None:
            view = Counter()
            if name == "sent_by_node":
                for (node, _action), count in self._iter_counts(
                        self._sent, self._sent_cols):
                    if node is not None:
                        view[node] += count
            elif name == "sent_by_action":
                for (_node, action), count in self._iter_counts(
                        self._sent, self._sent_cols):
                    view[action] += count
            elif name == "sent_by_node_action":
                for (node, action), count in self._iter_counts(
                        self._sent, self._sent_cols):
                    if node is not None:
                        view[(node, action)] += count
            elif name == "received_by_node":
                for (node, _action), count in self._iter_counts(
                        self._received, self._received_cols):
                    view[node] += count
            elif name == "received_by_action":
                for (_node, action), count in self._iter_counts(
                        self._received, self._received_cols):
                    view[action] += count
            elif name == "received_by_node_action":
                for (node, action), count in self._iter_counts(
                        self._received, self._received_cols):
                    view[(node, action)] += count
            else:  # pragma: no cover - programming error
                raise KeyError(name)
            self._derived[name] = view
        return view

    @property
    def sent_by_node(self) -> Counter:
        return Counter(self._view("sent_by_node"))

    @property
    def sent_by_action(self) -> Counter:
        return Counter(self._view("sent_by_action"))

    @property
    def sent_by_node_action(self) -> Counter:
        return Counter(self._view("sent_by_node_action"))

    @property
    def received_by_node(self) -> Counter:
        return Counter(self._view("received_by_node"))

    @property
    def received_by_action(self) -> Counter:
        return Counter(self._view("received_by_action"))

    @property
    def received_by_node_action(self) -> Counter:
        return Counter(self._view("received_by_node_action"))

    # ---------------------------------------------------------------- queries
    def received_by(self, node_id: int, action: Optional[str] = None) -> int:
        """Number of messages delivered to ``node_id`` (optionally one action)."""
        if action is None:
            return self._view("received_by_node")[node_id]
        count = self._received.get((node_id, action), 0)
        col = self._received_cols.get(action)
        # isinstance, not an exact type test: True must alias column row 1
        # exactly as it aliases the dict key (1, action).
        if (col is not None and isinstance(node_id, int)
                and 0 <= node_id < len(col)):
            count += col[node_id]
        return count

    def sent_by(self, node_id: int, action: Optional[str] = None) -> int:
        """Number of messages sent by ``node_id`` (optionally one action)."""
        if action is None:
            return self._view("sent_by_node")[node_id]
        count = self._sent.get((node_id, action), 0)
        col = self._sent_cols.get(action)
        if (col is not None and isinstance(node_id, int)
                and 0 <= node_id < len(col)):
            count += col[node_id]
        return count

    def to_summary_dict(self, include_latency: Optional[bool] = None
                        ) -> Dict[str, object]:
        """A JSON-safe summary of the statistics (totals, per-action sends,
        per-reason drops) — the shape :class:`~repro.api.report.RunReport`
        embeds as a message-stat snapshot.

        ``include_latency=None`` (the default) appends a
        ``"delivery_latency"`` block exactly when a latency histogram is
        attached, so summaries of telemetry-off runs keep their historical
        keys byte-for-byte.  Pass ``True``/``False`` to force either shape.
        """
        out: Dict[str, object] = {
            "total_sent": self.total_sent,
            "total_delivered": self.total_delivered,
            "total_dropped": self.total_dropped,
            "duplicated": self.duplicated,
            "drops_by_reason": {reason: count
                                for reason, count in sorted(self._drops.items())},
            "sent_by_action": dict(sorted(self._view("sent_by_action").items())),
            "received_by_action": dict(sorted(self._view("received_by_action").items())),
        }
        if include_latency is None:
            include_latency = self.delivery_latency is not None
        if include_latency and self.delivery_latency is not None:
            out["delivery_latency"] = self.delivery_latency.summary()
        return out

    def snapshot(self) -> "ChannelStats":
        """Return a deep copy usable as a baseline for differential counting."""
        clone = ChannelStats()
        # Fold the columns into dict form: snapshots are cold baselines, and
        # dict shape keeps delta() independent of where a count landed.
        clone._sent = self._merged(self._sent, self._sent_cols)
        clone._received = self._merged(self._received, self._received_cols)
        clone._drops = dict(self._drops)
        clone.duplicated = self.duplicated
        clone.total_sent = self.total_sent
        clone.total_delivered = self.total_delivered
        if self.delivery_latency is not None:
            clone.delivery_latency = self.delivery_latency.copy()
        return clone

    def delta(self, baseline: "ChannelStats") -> "ChannelStats":
        """Return the difference ``self - baseline`` (counter-wise).  When
        both sides carry a latency histogram the delta carries the bucket
        difference too (differential per-phase latency accounting)."""
        diff = ChannelStats()
        diff._sent = _dict_delta(
            self._merged(self._sent, self._sent_cols),
            baseline._merged(baseline._sent, baseline._sent_cols))
        diff._received = _dict_delta(
            self._merged(self._received, self._received_cols),
            baseline._merged(baseline._received, baseline._received_cols))
        diff._drops = _dict_delta(self._drops, baseline._drops)
        diff.duplicated = self.duplicated - baseline.duplicated
        diff.total_sent = self.total_sent - baseline.total_sent
        diff.total_delivered = self.total_delivered - baseline.total_delivered
        if (self.delivery_latency is not None
                and baseline.delivery_latency is not None):
            diff.delivery_latency = self.delivery_latency.delta(
                baseline.delivery_latency)
        elif self.delivery_latency is not None:
            diff.delivery_latency = self.delivery_latency.copy()
        return diff


def _dict_delta(current: Dict, baseline: Dict) -> Dict:
    """Key-wise ``current - baseline``, keeping only positive entries (matching
    the semantics of ``Counter`` subtraction on monotonically growing counts)."""
    out = {}
    for key, count in current.items():
        remaining = count - baseline.get(key, 0)
        if remaining > 0:
            out[key] = remaining
    return out


class Network:
    """Owns every node channel and enforces the asynchronous delivery model.

    The network does not deliver messages by itself: the
    :class:`~repro.sim.engine.Simulator` schedules a delivery event for each
    accepted message and later calls :meth:`pop` to remove it from the channel
    when the destination processes it.
    """

    __slots__ = ("min_delay", "max_delay", "_channels", "_msg_counter",
                 "stats", "_crashed", "adversary", "_pending_records")

    def __init__(self, min_delay: float = 0.1, max_delay: float = 1.0) -> None:
        if min_delay <= 0 or max_delay < min_delay:
            raise ValueError("delays must satisfy 0 < min_delay <= max_delay")
        self.min_delay = min_delay
        self.max_delay = max_delay
        #: dest -> {msg_id -> Message} (adversarial submits, injected
        #: corruption; fast-path records never enter a channel).  A plain
        #: dict (not a defaultdict): the engine's fused submit path
        #: subscripts it, and an auto-creating container would silently
        #: resurrect empty channels for crashed destinations that
        #: :meth:`mark_crashed` discarded.
        self._channels: Dict[int, Dict[int, Message]] = {}
        self._msg_counter = itertools.count()
        self.stats = ChannelStats()
        self._crashed: set[int] = set()
        #: optional link-level adversary (duck-typed; see
        #: :class:`repro.scenarios.adversary.LinkAdversary`).  ``None`` keeps
        #: the paper's fault model: no loss, no duplication, finite delays.
        self.adversary = None
        #: zero-arg callable yielding the scheduler's pending events (the
        #: simulator binds ``scheduler.iter_events`` here), used by the
        #: in-flight introspection to see channel-free fast records.  ``None``
        #: for a standalone network — then channels are the whole truth.
        self._pending_records = None

    # ------------------------------------------------------------------ admin
    def install_adversary(self, adversary) -> None:
        """Install (or with ``None``, remove) a link adversary.

        The adversary is consulted on every :meth:`submit` (loss, duplication,
        delay spikes, send-time partition checks) and every :meth:`pop`
        (delivery-time partition checks for messages already in flight when a
        partition started).  It must expose ``on_submit(msg, now)`` returning
        a :class:`~repro.scenarios.adversary.LinkVerdict` and
        ``on_deliver(msg, now)`` returning a drop-reason string or ``None``.
        """
        self.adversary = adversary

    def mark_crashed(self, node_id: int) -> None:
        """Record ``node_id`` as crashed; its channel is discarded and future
        messages to it are dropped silently."""
        self._crashed.add(node_id)
        self._channels.pop(node_id, None)

    def is_crashed(self, node_id: int) -> bool:
        return node_id in self._crashed

    # ------------------------------------------------------------------ sends
    def submit(self, msg: Message, rng, now: float) -> Sequence[Message]:
        """Accept ``msg`` into the destination channel.

        Returns the sequence of accepted copies (with delays and ids
        assigned), each of which needs a delivery event scheduled.  It is
        empty if the destination is crashed or the installed adversary
        dropped the message; it has more than one element when the adversary
        duplicated it.  Without an adversary the result is always zero or one
        message — the paper's channel model — served by an allocation-light
        fast path (this is the per-message hot loop, so the O(1)
        :class:`ChannelStats` counter updates are fused inline rather than
        paying a method call and a re-read of ``msg`` fields per message).
        """
        msg.msg_id = next(self._msg_counter)
        msg.send_time = now
        dest = msg.dest
        stats = self.stats
        stats.total_sent += 1
        key = (msg.sender, msg.action)
        sent = stats._sent
        sent[key] = sent.get(key, 0) + 1
        if stats._derived:
            stats._derived.clear()
        if dest in self._crashed:
            drops = stats._drops
            drops[DROP_TO_CRASHED] = drops.get(DROP_TO_CRASHED, 0) + 1
            return ()
        if self.adversary is None:
            msg.deliver_time = now + rng.uniform(self.min_delay, self.max_delay)
            try:
                self._channels[dest][msg.msg_id] = msg
            except KeyError:
                self._channels[dest] = {msg.msg_id: msg}
            return (msg,)
        return self._submit_adversarial(msg, rng, now)

    def _submit_adversarial(self, msg: Message, rng, now: float) -> Sequence[Message]:
        """Slow path of :meth:`submit`: consult the adversary for loss,
        duplication and delay scaling."""
        verdict = self.adversary.on_submit(msg, now)
        if verdict.drop_reason is not None:
            self.stats.record_drop(verdict.drop_reason)
            return ()
        if verdict.duplicates:
            self.stats.record_duplicate(verdict.duplicates)
        accepted: List[Message] = []
        for i in range(1 + verdict.duplicates):
            copy = msg if i == 0 else replace(msg, msg_id=next(self._msg_counter))
            delay = rng.uniform(self.min_delay, self.max_delay) * verdict.delay_factor
            copy.deliver_time = now + delay
            self._channels.setdefault(copy.dest, {})[copy.msg_id] = copy
            accepted.append(copy)
        return accepted

    def inject_initial(self, msg: Message) -> Message:
        """Place a (possibly corrupted) message into a channel without
        accounting it as protocol traffic.  Used by adversarial initial-state
        generators; the simulator still schedules its delivery."""
        msg.msg_id = next(self._msg_counter)
        msg.corrupted = True
        if msg.dest in self._crashed:
            return msg
        self._channels.setdefault(msg.dest, {})[msg.msg_id] = msg
        return msg

    # -------------------------------------------------------------- delivery
    def pop(self, msg: Message) -> Optional[Message]:
        """Remove ``msg`` from its channel at delivery time.

        Returns the message if it is still pending (normal case) or ``None``
        if the destination crashed after the message was sent.
        """
        channel = self._channels.get(msg.dest)
        if channel is None:
            return None
        pending = channel.pop(msg.msg_id, None)
        if pending is None:
            return None
        adversary = self.adversary
        if adversary is not None:
            # Delivery-time check: a message can be in flight when a partition
            # starts; it must not cross the cut while the partition is active.
            reason = adversary.on_deliver(pending, pending.deliver_time)
            if reason is not None:
                self.stats.record_drop(reason)
                return None
        stats = self.stats
        stats.total_delivered += 1
        if stats.delivery_latency is not None:
            stats.delivery_latency.record(
                pending.deliver_time - pending.send_time)
        key = (pending.dest, pending.action)
        received = stats._received
        received[key] = received.get(key, 0) + 1
        if stats._derived:
            stats._derived.clear()
        return pending

    def pop_record(self, record: tuple) -> bool:
        """Record-form sibling of :meth:`pop` for fast-path in-flight tuples.

        Returns ``True`` if the record was still pending and is now accounted
        as delivered; ``False`` if the destination crashed after the send or
        an adversary installed *since* the send (e.g. between scenario runs
        with traffic still in flight) vetoed delivery.  The record is only
        materialised into a :class:`Message` on that rare adversarial check.

        Records have no channel entry, so "still pending?" is a crashed-set
        test — only :meth:`mark_crashed` could ever remove one.
        """
        if record[REC_DEST] in self._crashed:
            return False
        adversary = self.adversary
        if adversary is not None:
            reason = adversary.on_deliver(record_to_message(record),
                                          record[REC_DELIVER_TIME])
            if reason is not None:
                self.stats.record_drop(reason)
                return False
        stats = self.stats
        stats.total_delivered += 1
        if stats.delivery_latency is not None:
            stats.delivery_latency.record(
                record[REC_DELIVER_TIME] - record[REC_SEND_TIME])
        key = (record[REC_DEST], record[REC_ACTION])
        received = stats._received
        received[key] = received.get(key, 0) + 1
        if stats._derived:
            stats._derived.clear()
        return True

    # ------------------------------------------------------------ inspection
    def _iter_pending_fast(self) -> Iterator[tuple]:
        """Yield the channel-free fast records still awaiting delivery.

        Pulled from the scheduler backlog (:attr:`_pending_records`),
        filtered down to records whose destination is alive — exactly the
        records the old per-destination channels would have held.  Records
        addressed to crashed nodes stay queued (the engine skips them at
        delivery time), so they are filtered here the way
        :meth:`mark_crashed` used to discard their channel entries.
        """
        source = self._pending_records
        if source is None:
            return
        crashed = self._crashed
        for event in source():
            if event[REC_KIND] == FAST_RECORD_KIND and event[REC_DEST] not in crashed:
                yield event

    def channel_of(self, node_id: int) -> List[Message]:
        """Return the in-flight messages currently addressed to ``node_id``
        (fast-path records materialised into :class:`Message` instances)."""
        out = list(self._channels.get(node_id, {}).values())
        if node_id not in self._crashed:
            out.extend(record_to_message(event)
                       for event in self._iter_pending_fast()
                       if event[REC_DEST] == node_id)
        return out

    def in_flight(self) -> int:
        """Total number of undelivered messages (channel entries plus
        channel-free fast records pending in the scheduler)."""
        return (sum(len(ch) for ch in self._channels.values())
                + sum(1 for _ in self._iter_pending_fast()))

    def iter_in_flight(self) -> Iterator[Message]:
        for channel in self._channels.values():
            yield from channel.values()
        for event in self._iter_pending_fast():
            yield record_to_message(event)

    def implicit_edges(self) -> List[tuple[int, int]]:
        """Edges ``(u, v)`` where a message in flight to ``u`` carries a
        reference to ``v`` (the paper's *implicit* edges).

        Reference-carrying parameters are recognised by convention: any
        parameter named ``node``, ``ref``, ``pred``, ``succ`` or ending in
        ``_ref`` whose value is an ``int`` is treated as a node reference.
        Reads fast-path records in place — no materialisation needed.
        """
        edges = []

        def _collect(dest: int, params: Dict[str, Any]) -> None:
            for key, value in params.items():
                if not isinstance(value, int):
                    continue
                if key in ("node", "ref", "pred", "succ", "sender") or key.endswith("_ref"):
                    edges.append((dest, value))

        for channel in self._channels.values():
            for msg in channel.values():
                _collect(msg.dest, msg.params)
        for event in self._iter_pending_fast():
            _collect(event[REC_DEST], event[REC_PARAMS])
        return edges
