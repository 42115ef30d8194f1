"""Seeded link-level adversary: loss, duplication, delay spikes, partitions.

The paper's channel model (Section 2) never loses or duplicates messages.
Self-stabilization is nonetheless expected to survive harsher conditions —
a lost message only delays convergence, a duplicate is absorbed by the
idempotent protocol actions, and a healed partition is just another corrupted
initial state.  :class:`LinkAdversary` makes those conditions injectable:

* **probabilistic loss** — every submitted message is dropped with
  probability ``loss_rate``;
* **duplication** — with probability ``duplicate_rate`` an extra copy with an
  independently drawn delay is delivered as well;
* **delay spikes** — during a :class:`DelaySpike` window every drawn delay is
  multiplied by ``factor`` (simulating congestion without violating the
  finite-delay guarantee);
* **named partitions** — a :class:`Partition` splits the node set into
  groups; while active, any message crossing a group boundary is dropped,
  both at send time and (for messages already in flight when the partition
  begins) at delivery time.  Partitions carry a scheduled ``heal_time`` after
  which the cut disappears — no bookkeeping call needed.

Determinism: all coin flips come from one ``random.Random`` handed in by the
caller (use :meth:`repro.sim.engine.Simulator.adversary_rng` to derive it
from the master seed).  The engine's send path consults ``on_submit`` once
per send to a live address and its drain consults ``on_deliver`` once per
delivery, both in event order — identical for the heap and wheel schedulers
— so identical seeds give identical event orders with the adversary active.
Tests assert this parity.  The hooks take ``(sender, dest, now)``: a link
policy reads nothing else of a message, so none is built to ask it.

Every run of the scenario/fuzz harness sends through these hooks, quiet
phases included, so they allocate nothing: an untouched message is ``None``
from both, a loss, a severed link and a plain duplicate are three constant
verdicts, and a :class:`LinkVerdict` is built only under an active delay
spike.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.sim.network import DROP_ADVERSARY_LOSS, DROP_PARTITION


@dataclass(frozen=True)
class LinkVerdict:
    """The adversary's decision about one submitted message.

    ``drop_reason`` is ``None`` (deliver) or a
    :data:`repro.sim.network.DROP_REASONS` name; ``duplicates`` is the number
    of *extra* copies to deliver; ``delay_factor`` scales the drawn delay.
    """

    drop_reason: Optional[str] = None
    duplicates: int = 0
    delay_factor: float = 1.0


#: The verdicts that carry no per-message data.
_LOST = LinkVerdict(drop_reason=DROP_ADVERSARY_LOSS)
_SEVERED = LinkVerdict(drop_reason=DROP_PARTITION)
_DUPLICATED = LinkVerdict(duplicates=1)


@dataclass(frozen=True)
class DelaySpike:
    """Multiply message delays by ``factor`` while ``start <= now < end``."""

    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if not self.start <= self.end:  # also NaN
            raise ValueError("delay spike must end at or after it starts")
        if not 0 < self.factor < math.inf:
            raise ValueError("delay factor must be positive and finite")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


class Partition:
    """A named cut of the node set with a scheduled heal time.

    ``groups`` lists disjoint sets of node ids; every node not mentioned
    belongs to one implicit *rest* group (which is where supervisors usually
    end up).  While the partition is active, messages whose sender and
    destination fall into different groups are severed.  Adversarially
    injected messages (``sender is None``) are attributed to the rest group.
    """

    def __init__(self, name: str, groups: Sequence[Iterable[int]],
                 start: float = 0.0, heal_time: Optional[float] = None) -> None:
        if not start <= (math.inf if heal_time is None else heal_time):  # also NaN
            raise ValueError("a partition cannot heal before it starts")
        self.name = name
        self.groups: List[Set[int]] = [set(g) for g in groups]
        seen: Set[int] = set()
        for group in self.groups:
            if seen & group:
                raise ValueError(f"partition {name!r} has overlapping groups")
            seen |= group
        self.start = start
        self.heal_time = heal_time
        self._side: Dict[int, int] = {
            node: index for index, group in enumerate(self.groups) for node in group
        }

    def active(self, now: float) -> bool:
        if now < self.start:
            return False
        return self.heal_time is None or now < self.heal_time

    def severs(self, sender: Optional[int], dest: int, now: float) -> bool:
        # ``active(now)``, inlined: called per message and per partition
        if now < self.start or (self.heal_time is not None
                                and now >= self.heal_time):
            return False
        rest = len(self.groups)
        side_of = self._side.get
        return side_of(dest, rest) != (rest if sender is None
                                       else side_of(sender, rest))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        heal = "never" if self.heal_time is None else f"{self.heal_time:.1f}"
        return (f"Partition({self.name!r}, groups={len(self.groups)}+rest, "
                f"start={self.start:.1f}, heal={heal})")


class LinkAdversary:
    """Composable adversarial link conditions, drawn from one seeded RNG.

    The object is installed via
    :meth:`repro.sim.engine.Simulator.install_adversary` and consulted by the
    network on every send and delivery.  All conditions can be reconfigured
    mid-run (the scenario runner flips them per phase); :meth:`quiesce`
    discards delay spikes and, given the current time, healed partitions.
    """

    def __init__(self, rng: random.Random, loss_rate: float = 0.0,
                 duplicate_rate: float = 0.0) -> None:
        self.rng = rng
        self.loss_rate = 0.0
        self.duplicate_rate = 0.0
        self.set_rates(loss_rate, duplicate_rate)
        self.spikes: List[DelaySpike] = []
        self.partitions: Dict[str, Partition] = {}

    # -------------------------------------------------------------- configure
    def set_rates(self, loss_rate: Optional[float] = None,
                  duplicate_rate: Optional[float] = None) -> None:
        """Update the probabilistic loss/duplication rates (``None`` keeps)."""
        if loss_rate is not None:
            if not 0.0 <= loss_rate < 1.0:
                raise ValueError("loss_rate must lie in [0, 1)")
            self.loss_rate = loss_rate
        if duplicate_rate is not None:
            if not 0.0 <= duplicate_rate < 1.0:
                raise ValueError("duplicate_rate must lie in [0, 1)")
            self.duplicate_rate = duplicate_rate

    def add_delay_spike(self, start: float, end: float, factor: float) -> DelaySpike:
        spike = DelaySpike(start=start, end=end, factor=factor)
        self.spikes.append(spike)
        return spike

    def add_partition(self, name: str, groups: Sequence[Iterable[int]],
                      start: float = 0.0,
                      heal_time: Optional[float] = None) -> Partition:
        """Register a named partition; it activates and heals by itself."""
        if name in self.partitions:
            raise ValueError(f"a partition named {name!r} already exists")
        partition = Partition(name, groups, start=start, heal_time=heal_time)
        self.partitions[name] = partition
        return partition

    def quiesce(self, now: Optional[float] = None) -> None:
        """Stop all probabilistic interference and discard delay spikes.
        With ``now`` given, partitions already healed by then are swept out
        (so long multi-phase runs do not accumulate dead cuts in the
        per-message hooks); still-active partitions keep their scheduled
        heal times."""
        self.loss_rate = 0.0
        self.duplicate_rate = 0.0
        self.spikes = []
        if now is not None:
            self.partitions = {
                name: p for name, p in self.partitions.items()
                if p.heal_time is None or p.heal_time > now
            }

    # ------------------------------------------------------------------ hooks
    def on_submit(self, sender: Optional[int], dest: int,
                  now: float) -> Optional[LinkVerdict]:
        """Called by the engine's send path for every send to a non-crashed
        destination; ``None`` leaves the message untouched.

        Coin order is part of the seeded contract: the loss coin (only if
        ``loss_rate > 0``), then the duplicate coin (only if
        ``duplicate_rate > 0``).
        """
        if self.partitions:
            for partition in self.partitions.values():
                if partition.severs(sender, dest, now):
                    return _SEVERED
        delay_factor = 1.0
        if self.spikes:
            for spike in self.spikes:
                if spike.active(now):
                    delay_factor *= spike.factor
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            return _LOST
        duplicated = (self.duplicate_rate > 0.0
                      and self.rng.random() < self.duplicate_rate)
        if delay_factor != 1.0:
            return LinkVerdict(duplicates=int(duplicated),
                               delay_factor=delay_factor)
        return _DUPLICATED if duplicated else None

    def on_deliver(self, sender: Optional[int], dest: int,
                   now: float) -> Optional[str]:
        """Called at delivery time (the engine's drain loop,
        ``Network.pop_record``); a non-``None`` return drops the message.

        Only partitions act here: a message sent before a partition started
        must not cross the cut while it is active.  Loss/duplication already
        happened at send time.
        """
        if self.partitions:
            for partition in self.partitions.values():
                if partition.severs(sender, dest, now):
                    return DROP_PARTITION
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LinkAdversary(loss={self.loss_rate}, dup={self.duplicate_rate}, "
                f"spikes={len(self.spikes)}, partitions={sorted(self.partitions)})")
