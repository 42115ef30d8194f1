"""The discrete-event simulator driving timeouts and message delivery.

The simulator realises the paper's asynchronous execution model:

* **fair message receipt** — every submitted message is assigned a finite
  random delay and is eventually delivered (unless its destination crashes);
* **non-FIFO delivery** — delays are drawn independently per message, so later
  messages can overtake earlier ones;
* **weakly fair action execution** — every attached node's ``Timeout`` action
  is scheduled periodically (with jitter) forever, unless the node crashes.

All randomness is derived from a single master seed
(:class:`SimulatorConfig.seed`), so runs are reproducible.

Hot-path layout: every driver funnels into :meth:`Simulator.run_until_time`,
which has **one** event loop, :meth:`Simulator._drain`: it walks the wheel's
current bucket (see :mod:`repro.sim.scheduler`) in place, with no per-event
queue traffic.  Every push — a send, a Timeout reschedule, a callback, a
crash, a freshly added node's first Timeout, a zero-delay injection, a
delivery an adversary scaled below ``min_delay`` — goes to the wheel, and
one due in the walked bucket is inserted at its ``(time, seq)`` place, after
the running event; so the event order is exactly the per-event reference's
(``reference_step`` in ``tests/conftest.py``) under any adversary or
telemetry setting.  Every in-flight message — sent by a node, duplicated by
an adversary or injected as initial-state corruption —
is one plain tuple (a *record*, :mod:`repro.sim.network`) that is its own
delivery event and lives only in the scheduler: no per-message object, no
second copy in a channel — and reaches a handler by one rule, the class's
``_action_handlers`` table.  A send has one path too (``_send_fast``, one call
per batch): with or without a link adversary — the scenario and fuzz harness
installs one on every run — each copy is counted, tested against the crashed
set, shown to the adversary unless it is idle and, unless it answers with a
verdict, pushed; the drain asks the adversary only while it holds a partition.
Message delays and timeout jitter are drawn where
they are used: one ``random()`` per use on a prebound ``Random.random``,
inside ``Random.uniform``'s own expression (``a + (b - a) * random()``), so
every float and each stream's position after it are those of per-call
``uniform`` draws (pinned by ``tests/test_engine_reference.py``).  The node
table is one dict, ``Simulator.nodes``; the wheel's bucket width is fixed
when the simulator builds it (:func:`~repro.sim.scheduler.auto_bucket_width`).
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import random
from bisect import bisect_left
from dataclasses import InitVar, dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.sim.failure import FailureDetector
from repro.sim.network import DROP_TO_CRASHED, FAST_RECORD_KIND, Network
from repro.sim.node import NodeRef, ProtocolNode
from repro.sim.rng import derive_rng
from repro.sim.scheduler import TimeoutWheelScheduler, auto_bucket_width
from repro.sim.tracing import Tracer


@dataclass(slots=True)
class SimulatorConfig:
    """Tunable parameters of the simulation substrate.

    Attributes
    ----------
    seed:
        Master seed for all randomness (delays, jitter, protocol coins).
    min_delay / max_delay:
        Bounds of the uniform message delay distribution.
    timeout_period:
        Nominal time between two consecutive ``Timeout`` invocations of a node.
    timeout_jitter:
        Relative jitter applied to each timeout period (0.2 = ±20 %), which
        desynchronises nodes and exercises non-deterministic interleavings.
    detection_lag:
        Lag of the supervisor's failure detector (Section 3.3).
    keep_trace_events:
        Whether the tracer stores individual events (counters are always kept).
    """

    seed: int = 0
    min_delay: float = 0.1
    max_delay: float = 1.0
    timeout_period: float = 1.0
    timeout_jitter: float = 0.2
    detection_lag: float = 0.0
    keep_trace_events: bool = False
    #: Stores nothing; accepted only because ``bench/workloads.py`` builds
    #: ``SimulatorConfig(seed=seed, scheduler="wheel")``.  The benchmark's
    #: next definition change deletes it.
    scheduler: InitVar[str] = "wheel"

    def __post_init__(self, scheduler: str) -> None:
        if scheduler != "wheel":
            raise ValueError(f"the engine has one event queue, not {scheduler!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"SimulatorConfig.seed must be an int, got {self.seed!r}")
        if not isinstance(self.keep_trace_events, bool):
            raise ValueError("SimulatorConfig.keep_trace_events must be a bool, "
                             f"got {self.keep_trace_events!r}")
        for name in ("min_delay", "max_delay", "timeout_period", "detection_lag"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # Strictly positive: the paper's channels deliver each message after
        # a positive, finite delay.
        if self.min_delay <= 0:
            raise ValueError("min_delay must be positive")
        if self.max_delay < self.min_delay:
            raise ValueError("max_delay must be >= min_delay")
        if self.detection_lag < 0:
            raise ValueError("detection_lag must be non-negative")
        if self.timeout_period <= 0:
            raise ValueError("timeout_period must be positive")
        if not 0 <= self.timeout_jitter < 1:
            raise ValueError("timeout_jitter must lie in [0, 1)")


# Event kinds used in the scheduler
_TIMEOUT = 1
_CRASH = 2
_CALL = 3
#: Message delivery: the event tuple IS the in-flight message record (see the
#: ``REC_*`` layout in :mod:`repro.sim.network`, which owns the canonical
#: kind value).
_DELIVER_FAST = FAST_RECORD_KIND


class Simulator:
    """Event-driven executor for a set of :class:`ProtocolNode` instances.

    Slotted: ``self.now`` is read and written once per event, so the
    per-instance ``__dict__`` indirection is worth removing.  The
    ``_send_fast`` closure is a per-instance slot assigned by
    :meth:`_bind_fast_submit`.  ``_draining`` is true while
    :meth:`run_until_time` runs, so an event cannot start a second drain.
    """

    __slots__ = ("config", "now", "network", "tracer", "failure_detector",
                 "nodes", "_seq", "_delay_rng", "_jitter_rng",
                 "_adversary_rng", "_steps", "_draining",
                 "_scheduler", "_send_fast", "_profile")

    def __init__(self, config: Optional[SimulatorConfig] = None) -> None:
        self.config = config or SimulatorConfig()
        self.now: float = 0.0
        self.network = Network()
        self.tracer = Tracer(keep_events=self.config.keep_trace_events)
        self.failure_detector = FailureDetector(self.config.detection_lag)
        self.failure_detector.attach(self)
        self.nodes: Dict[NodeRef, ProtocolNode] = {}
        self._seq = itertools.count()
        #: message delays: one ``uniform(min_delay, max_delay)`` per accepted
        #: copy of a send (and per injection without an explicit delay)
        self._delay_rng = derive_rng(self.config.seed, "delay")
        #: the ``add_node`` timeout stagger and the per-Timeout reschedule
        #: factor, interleaved in event order
        self._jitter_rng = derive_rng(self.config.seed, "jitter")
        self._adversary_rng = derive_rng(self.config.seed, "adversary")
        self._steps = 0
        #: opt-in wall-clock drain accounting (see :meth:`enable_profiling`)
        self._profile: Optional[Dict[str, Any]] = None
        self._draining = False
        config = self.config
        self._scheduler = TimeoutWheelScheduler(bucket_width=auto_bucket_width(
            config.timeout_period, config.min_delay, config.max_delay,
            config.timeout_jitter))
        self._bind_fast_submit()

    @property
    def scheduler(self) -> TimeoutWheelScheduler:
        """The event queue, built once with the simulator (read-only:
        ``_send_fast`` captured it)."""
        return self._scheduler

    def _bind_fast_submit(self) -> None:
        """Build ``_send_fast(sender, topic, sends)``, the one send path, once
        per simulator: ``sends`` is a batch of ``(dest, action, params)``
        triples — one message (:meth:`ProtocolNode.send`), a flood, a
        subscriber's Timeout round.

        Network internals, scheduler, delay stream and seq counter are
        resolved here; the clock, the adversary and the crashed set are read
        once per batch.  A send builds one record tuple that lives *only* in
        the scheduler until delivery, and is counted once, in the per-action
        store (the totals are sums over it, taken when read; the wheel keeps
        no count).  Per copy, in batch order: count it, drop it if the address
        is gone (crashed, or a ``dest`` that cannot be an address — never
        shown to the adversary), ask a non-idle adversary's ``on_submit`` and
        — untouched (``None``) or with no adversary to ask — draw the delay
        and push inline; only a verdict (a drop, a duplicate, a delay spike)
        takes the generic tail.  So a batch is its triples sent one per call.
        """
        network = self.network
        crashed = network._crashed
        stats = network.stats
        sent = stats._sent  # action -> {sender: count}; never rebound
        # ``_delay_rng.uniform(min_delay, max_delay)`` unrolled with its bounds
        # precomputed — ``now + (a + (b - a) * random())`` is the same float
        # as Random.uniform's, minus the per-message method frame, as long as
        # it stays parenthesised exactly so (float addition is
        # non-associative).
        delay_rand = self._delay_rng.random
        min_delay = self.config.min_delay
        delay_span = self.config.max_delay - min_delay
        scheduler = self._scheduler
        scheduler_push = scheduler.push
        seq_next = self._seq.__next__
        # The untouched send's push is the wheel's bucket append, inlined.
        inv_width = scheduler._inv_width
        buckets = scheduler._buckets
        bucket_heap = scheduler._bucket_heap
        insert_late = scheduler._insert_late
        heappush = heapq.heappush

        def _send_fast(sender: Optional[NodeRef], topic: Optional[str],
                       sends: Sequence[Tuple[NodeRef, str, Dict[str, Any]]]) -> None:
            # hot path — one frame per batch; a per-event container added
            # here fails test_engine_hot_loops_build_no_container_per_event
            now = self.now
            adversary = network.adversary
            # unconditional under an adversary: it never sees an unhashable dest
            screen = crashed or adversary is not None
            if adversary is not None and adversary.idle:
                adversary = None  # it would answer None and draw no coin
            current_index = scheduler._current_index  # moves only when the wheel advances
            for dest, action, params in sends:
                try:
                    sent[action][sender] += 1
                except KeyError:
                    # first sight of the action or of this sender under it
                    sent.setdefault(action, {})[sender] = 1
                if screen:
                    try:
                        gone = dest in crashed
                    except TypeError:
                        gone = True  # unhashable ``dest``: no such address
                    if gone:
                        stats.record_drop(DROP_TO_CRASHED)
                        continue
                    if adversary is not None:
                        verdict = adversary.on_submit(sender, dest, now)
                        if verdict is not None:
                            # touched: dropped, duplicated or delay-scaled
                            if verdict.drop_reason is not None:
                                stats.record_drop(verdict.drop_reason)
                                continue
                            duplicates = verdict.duplicates
                            stats.duplicated += duplicates
                            factor = verdict.delay_factor
                            for _ in range(1 + duplicates):
                                deliver_time = now + (
                                    min_delay + delay_span * delay_rand()) * factor
                                scheduler_push((deliver_time, seq_next(), _DELIVER_FAST,
                                                dest, action, params, topic, sender, now))
                            continue
                deliver_time = now + (min_delay + delay_span * delay_rand())
                # the REC_* layout of repro.sim.network: (deliver_time, seq,
                # kind, dest, action, params, topic, sender, send_time)
                record = (deliver_time, seq_next(), _DELIVER_FAST, dest,
                          action, params, topic, sender, now)
                # inlined TimeoutWheelScheduler.push
                index = int(deliver_time * inv_width)
                if index <= current_index:
                    insert_late(record)
                else:
                    try:
                        buckets[index].append(record)
                    except KeyError:
                        # amortised: one list per bucket, not per event
                        buckets[index] = [record]
                        heappush(bucket_heap, index)

        #: the send path used by :meth:`ProtocolNode.send`
        self._send_fast = _send_fast

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: ProtocolNode, schedule_timeout: bool = True) -> ProtocolNode:
        """Register ``node`` and (optionally) start its periodic Timeout."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        node.attach(self)
        self.nodes[node.node_id] = node
        if schedule_timeout:
            # Stagger the first timeout uniformly over one period so nodes do
            # not fire in lock-step.
            first = self.now + self._jitter_rng.uniform(
                0, self.config.timeout_period)
            self._push(first, _TIMEOUT, node.node_id)
        return node

    def node_rng(self, node_id: NodeRef, stream: str = "protocol") -> random.Random:
        """A per-node RNG stream derived from the master seed."""
        return derive_rng(self.config.seed, "node", node_id, stream)

    # --------------------------------------------------------------- messages
    def inject_message(self, dest: NodeRef, action: str, params: Dict[str, Any],
                       topic: Optional[str] = None, delay: Optional[float] = None) -> None:
        """Place an adversarial message into ``dest``'s channel (initial-state
        corruption): a record with ``sender=None``, delivered like any other
        but never counted as a protocol send."""
        if delay is not None and not (math.isfinite(delay) and delay >= 0):
            # The drain relies on every schedulable time being >= now.
            raise ValueError("inject_message delay must be finite and non-negative")
        if not all(isinstance(key, str) for key in params):  # ``handler(node, **params)``
            raise TypeError("inject_message params must be named: every key a str")
        if delay is None:
            delay = self._delay_rng.uniform(self.config.min_delay,
                                            self.config.max_delay)
        self._push(self.now + delay, _DELIVER_FAST, dest, action, dict(params),
                   topic, None, self.now)

    # ----------------------------------------------------------------- faults
    def install_adversary(self, adversary) -> None:
        """Install a link adversary on the network (see
        :meth:`repro.sim.network.Network.install_adversary`).

        The adversary's coin flips happen at send time (``_send_fast``
        calls its ``on_submit`` unless it is idle), which runs in event
        order, so a seeded adversary keeps runs reproducible per seed.
        Mid-run, install from a :meth:`call_at` callback: the drain reads the
        adversary once per bucket and again after each callback it runs.
        """
        self.network.install_adversary(adversary)

    def adversary_rng(self) -> random.Random:
        """The RNG stream reserved for a link adversary, derived from the
        master seed (so adversarial runs stay reproducible per seed).  The
        stream is created once per simulator: repeated calls return the same
        advancing RNG, never a restarted copy of it."""
        return self._adversary_rng

    def crash_node(self, node_id: NodeRef, at: Optional[float] = None) -> None:
        """Crash ``node_id`` now or at a future time ``at``."""
        if at is not None and not math.isfinite(at):
            raise ValueError("crash_node at must be finite")
        if at is None or at <= self.now:
            self._apply_crash(node_id)
        else:
            self._push(at, _CRASH, node_id)

    def _apply_crash(self, node_id: NodeRef) -> None:
        node = self.nodes.get(node_id)
        if node is None or node.crashed:
            return
        node.crash()
        self.network.mark_crashed(node_id)
        self.failure_detector.notify_crash(node_id, self.now)
        self.tracer.record(self.now, "crash", node=node_id)

    # ------------------------------------------------------------------ clock
    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule an arbitrary callback (used by workloads/experiments)."""
        if not math.isfinite(time):
            raise ValueError("call_at time must be finite")
        self._push(max(time, self.now), _CALL, fn)

    def _push(self, time: float, kind: int, *payload: Any) -> None:
        """Generic event push — ``(time, seq, kind, *payload)`` — to the
        wheel; one due in the bucket being drained lands after the running
        event (``time >= now``, fresh ``seq``), so the drain runs it in
        order."""
        self._scheduler.push((time, next(self._seq), kind) + payload)

    # ----------------------------------------------------------------- drivers
    def run_for(self, duration: float) -> None:
        """Run until simulation time advances by ``duration``."""
        self.run_until_time(self.now + duration)

    def run_until_time(self, deadline: float) -> None:
        """Process events in order until the next one lies beyond ``deadline``.

        Events are consumed in exactly the ``(time, seq)`` order a per-event
        drain would produce (``tests/conftest.py``'s ``reference_step``),
        whatever the adversary or telemetry setting — see :meth:`_drain`,
        the one drain loop.  A deadline that is not finite raises: the
        periodic Timeouts would never let the drain end.  So does a call from
        inside an event (a callback or a handler): it would walk the bucket
        the outer drain is walking.
        """
        if not math.isfinite(deadline):
            raise ValueError("run_until_time deadline must be finite")
        if self._draining:
            raise RuntimeError("run_until_time called from inside an event")
        # Pause the cyclic garbage collector for the duration of the run.
        # The hot loop allocates a tuple or two per event (records, timeout
        # events), and every ~700 net allocations trigger a gen-0
        # scan; over a long run the collector eats 10-20 % of the wall clock
        # while collecting almost nothing — event garbage is acyclic and dies
        # by refcount, and the sim <-> node reference cycles live until the
        # simulator itself is dropped (never mid-run).  Cycles a handler
        # creates during the run are simply collected after it returns.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        profile = self._profile
        if profile is not None:
            wall_start = perf_counter()
            steps_before = self._steps
        self._draining = True
        try:
            self._drain(deadline)
        finally:
            self._draining = False
            if gc_was_enabled:
                gc.enable()
            if profile is not None:
                profile["drains"] += 1
                profile["wall_seconds"] += perf_counter() - wall_start
                profile["steps"] += self._steps - steps_before
        if deadline > self.now:
            self.now = deadline

    def _drain(self, deadline: float) -> None:
        """The event loop: it walks the wheel's current bucket in place.

        Safety argument: every schedulable time is ``>= now`` and a fresh
        ``seq`` sorts after every queued event of equal time, so an event
        pushed into the walked bucket — by ``_send_fast``, a Timeout
        reschedule or :meth:`_push`, through the wheel's ``_insert_late`` —
        lands after the running event, and the list iterator reaches it in
        order.  Hence the walk runs exactly a per-event pop's order.  A bucket
        run to its end is cleared; the walk stops at the first event due
        after ``deadline`` and deletes the prefix it ran, leaving the rest
        queued.

        The adversary is read once per bucket and again after each callback
        (the only code that installs, removes or swaps one mid-run), and
        costs the one delivery branch a delivery-time check (a partition that
        started with the record in flight) only while it holds a partition.
        With telemetry on, a delivery bumps the latency histogram's slot and
        max inline.  An exception deletes the prefix that ran, the raising
        event included, and propagates.
        """
        # hot path — the fused delivery/timeout drain; a per-event container
        # added here fails test_engine_hot_loops_build_no_container_per_event
        scheduler = self._scheduler
        next_time = scheduler.next_time
        heappush = heapq.heappush
        # Timeout reschedules are by far the most frequent push this loop
        # performs; inline the wheel's push for them, as _send_fast does.
        inv_width = scheduler._inv_width
        buckets = scheduler._buckets
        bucket_heap = scheduler._bucket_heap
        insert_late = scheduler._insert_late
        seq_next = self._seq.__next__
        network = self.network
        pop_record = network.pop_record
        crashed_set = network._crashed
        stats = network.stats
        latency_hist = stats.delivery_latency  # None unless telemetry is on
        # its ``record``, inlined: the histogram never rebinds either
        latency_slots = None if latency_hist is None else latency_hist.slots
        latency_bounds = None if latency_hist is None else latency_hist.bounds
        received = stats._received  # action -> {dest: count}
        nodes_get = self.nodes.get
        config = self.config
        period = config.timeout_period
        jitter = config.timeout_jitter
        # ``uniform(-jitter, jitter)`` unrolled like the delay draw of
        # _bind_fast_submit; the reschedule below must stay parenthesised
        # exactly ``1 + (a + span * r)``.
        neg_jitter = -jitter
        jitter_span = jitter - neg_jitter
        jitter_rand = self._jitter_rng.random
        while True:
            t0 = next_time()
            if t0 is None or t0 > deadline:
                return
            bucket = scheduler._current
            current_index = scheduler._current_index  # fixed while it runs
            adversary = network.adversary
            event = None
            try:
                # No enumerate: only the stop and exception paths need the
                # index, and ``bucket.index(event)`` recovers it ((time, seq)
                # is unique).
                for event in bucket:
                    time = event[0]
                    if time > deadline:
                        break
                    # Unconditional clock store: bucket events arrive sorted
                    # ascending and every schedulable time is >= now
                    # (inject_message validates its delay), so the clock
                    # never moves backward here.
                    self.now = time
                    kind = event[2]
                    if kind == _DELIVER_FAST:
                        # Fused record delivery (in sync with
                        # Network.pop_record): records live only in this
                        # queue, so "still deliverable?" is one membership
                        # test on the crashed set (usually empty) and the
                        # per-action store's counter updates inline.
                        dest = event[3]
                        action = event[4]
                        if type(dest) is int:
                            if crashed_set and dest in crashed_set:
                                continue  # destination crashed after the send
                            if adversary is not None and adversary.partitions:
                                # Delivery-time check: a record can be in
                                # flight when a partition starts; it must not
                                # cross the cut while the partition is active.
                                reason = adversary.on_deliver(event[7], dest,
                                                              time)
                                if reason is not None:
                                    stats.record_drop(reason)
                                    continue
                            if latency_slots is not None:
                                latency = time - event[8]
                                latency_slots[bisect_left(latency_bounds, latency)] += 1
                                if latency > latency_hist.max_value:
                                    latency_hist.max_value = latency
                            try:
                                received[action][dest] += 1
                            except KeyError:
                                # first sight, as in _send_fast
                                received.setdefault(action, {})[dest] = 1
                        elif not pop_record(event):
                            # Not an int: the reference accounting, where an
                            # unhashable ``dest`` is dropped.
                            continue
                        node = nodes_get(dest)
                        if node is None or node.crashed:
                            continue
                        handler = node._action_handlers.get(action)
                        if handler is None:
                            continue  # a label no handler understands
                        # topic folded in place: a record owns its params (a
                        # duplicate shares them; the write is idempotent)
                        params = event[5]
                        topic = event[6]
                        if topic is not None and "topic" not in params:
                            params["topic"] = topic
                        handler(node, **params)
                    elif kind == _TIMEOUT:
                        node = nodes_get(event[3])
                        if node is None or node.crashed:
                            continue
                        node.timeout_count += 1
                        node.on_timeout()
                        next_at = self.now + period * (
                            1 + (neg_jitter + jitter_span * jitter_rand()))
                        timeout_event = (next_at, seq_next(), _TIMEOUT, event[3])
                        # inlined TimeoutWheelScheduler.push
                        index = int(next_at * inv_width)
                        if index <= current_index:
                            insert_late(timeout_event)
                        else:
                            try:
                                buckets[index].append(timeout_event)
                            except KeyError:
                                # amortised: one list per bucket
                                buckets[index] = [timeout_event]
                                heappush(bucket_heap, index)
                    elif kind == _CRASH:
                        self._apply_crash(event[3])
                    elif kind == _CALL:
                        event[3]()
                        adversary = network.adversary
                else:
                    self._steps += len(bucket)
                    bucket.clear()
                    continue
            except BaseException:
                # The raising event counts as run; the rest stays queued.
                ran = 0 if event is None else bucket.index(event) + 1
                self._steps += ran
                del bucket[:ran]
                raise
            ran = bucket.index(event)
            self._steps += ran
            del bucket[:ran]
            return

    def run_rounds(self, rounds: int) -> None:
        """Run for ``rounds`` timeout periods of simulated time."""
        self.run_for(rounds * self.config.timeout_period)

    def run_until(self, predicate: Callable[[], bool], check_every: float = 1.0,
                  max_time: float = 10_000.0) -> bool:
        """Advance time until ``predicate()`` is true or ``max_time`` elapses.

        Returns True if the predicate held at some checkpoint.  The predicate
        is evaluated every ``check_every`` (> 0) time units of simulated time.
        """
        if not check_every > 0:
            raise ValueError("check_every must be positive")
        deadline = self.now + max_time
        while self.now < deadline:
            if predicate():
                return True
            self.run_until_time(min(self.now + check_every, deadline))
        return predicate()

    @property
    def timeout_counts(self) -> Dict[NodeRef, int]:
        """Per-node ``Timeout`` firing counts (a fresh dict view; the live
        counter is :attr:`ProtocolNode.timeout_count`)."""
        return {node_id: node.timeout_count for node_id, node in self.nodes.items()}

    def completed_timeout_intervals(self) -> int:
        """Number of completed *timeout intervals* (every live node fired its
        Timeout at least that many times) — the unit used in Theorem 5."""
        counts = [n.timeout_count for n in self.nodes.values() if not n.crashed]
        return min(counts) if counts else 0

    @property
    def steps_executed(self) -> int:
        return self._steps

    # ------------------------------------------------------------- profiling
    def enable_profiling(self) -> None:
        """Opt-in wall-clock drain accounting for :meth:`run_until_time`.

        Each drain (one ``run_until_time`` call) adds its real wall time
        and event count to a running tally.
        The tally is wall-clock data: it never enters a deterministic
        report, only profiling artifacts (``scripts/profile_hotpath.py``).
        Idempotent; costs two ``perf_counter`` calls per drain when on and
        a single ``None`` test when off.
        """
        if self._profile is None:
            self._profile = {"drains": 0, "wall_seconds": 0.0, "steps": 0}

    def profile_snapshot(self) -> Optional[Dict[str, Any]]:
        """Copy of the drain tally (``None`` when profiling is off)."""
        if self._profile is None:
            return None
        snapshot = dict(self._profile)
        snapshot["wall_seconds"] = round(snapshot["wall_seconds"], 6)
        if snapshot["wall_seconds"] > 0 and snapshot["steps"]:
            snapshot["events_per_sec"] = round(
                snapshot["steps"] / snapshot["wall_seconds"])
        return snapshot
