"""Seed-management helpers.

Every stochastic component of the simulator (message delays, timeout jitter,
probabilistic protocol actions, workload generators) draws from a
``random.Random`` instance derived deterministically from a single master
seed.  Deriving independent streams per component keeps experiments
reproducible while avoiding accidental correlation between, say, the order in
which timeouts fire and the coin flips inside the subscriber protocol.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List


def _hash_to_int(*parts: object) -> int:
    """Hash an arbitrary tuple of printable parts into a 64-bit integer."""
    digest = hashlib.sha256("|".join(repr(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(master_seed: int, *stream: object) -> int:
    """Derive a 64-bit integer seed deterministically from ``master_seed``
    and a stream identifier (the integer-valued sibling of
    :func:`derive_rng`).

    The sweep layer (:mod:`repro.exec.sweep`) derives per-task seeds this
    way, and campaign artifacts are byte-comparable across runs *because*
    this mapping is stable — treat the hash construction as a frozen
    serialization format, not an implementation detail.
    """
    return _hash_to_int(master_seed, *stream)


def derive_rng(master_seed: int, *stream: object) -> random.Random:
    """Return a :class:`random.Random` seeded deterministically from
    ``master_seed`` and a stream identifier.

    Parameters
    ----------
    master_seed:
        The experiment-level seed.
    stream:
        Arbitrary hashable/printable identifiers naming the consumer, e.g.
        ``derive_rng(seed, "delay")`` or ``derive_rng(seed, "node", node_id)``.
    """
    return random.Random(_hash_to_int(master_seed, *stream))


def spawn_seeds(master_seed: int, count: int, label: str = "seed") -> List[int]:
    """Derive ``count`` independent integer seeds from ``master_seed``.

    Used by experiment runners that repeat a trial over several seeds.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return [_hash_to_int(master_seed, label, i) for i in range(count)]


def shuffle_deterministically(items: Iterable, master_seed: int, *stream: object) -> list:
    """Return ``items`` as a list shuffled with a derived RNG."""
    out = list(items)
    derive_rng(master_seed, "shuffle", *stream).shuffle(out)
    return out


class BatchedUniform:
    """Pre-generated ``Random.uniform(a, b)`` draws over one fixed interval.

    The simulator's per-message hot path draws one uniform delay per submitted
    message.  ``random.Random.uniform`` is a Python-level method — each call
    pays an attribute lookup, a frame and the ``a + (b - a) * random()``
    arithmetic.  This wrapper draws ``batch_size`` raw values at once with the
    C-level ``random()`` bound once per refill and scales them in a single
    list comprehension, so the steady-state per-draw cost is one ``list.pop``.

    The value sequence is **bit-identical** to calling ``rng.uniform(a, b)``
    the same number of times on the same ``Random`` instance:
    ``uniform(a, b)`` is defined as ``a + (b - a) * self.random()`` and draws
    exactly one ``random()`` per call, which is exactly what the refill does,
    in the same order.  Reproducibility of seeded runs (and the byte-identical
    report guarantee) therefore survives the batching.

    The drawer intentionally mimics the tiny slice of the ``Random`` interface
    the network needs (``uniform`` over its bound interval), so it can be
    passed anywhere a delay RNG used to go.  Draws over any *other* interval
    are refused loudly rather than silently desynchronising the stream.

    The buffer list object is **stable for the drawer's lifetime**: refills
    mutate it in place instead of rebinding it, so the engine's fused
    closures may capture ``_buffer`` once and keep popping from it across
    refills.
    """

    __slots__ = ("a", "b", "_rng", "_batch_size", "_buffer")

    def __init__(self, rng: random.Random, a: float, b: float,
                 batch_size: int = 1024) -> None:
        if b < a:
            raise ValueError("interval must satisfy a <= b")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.a = a
        self.b = b
        self._rng = rng
        self._batch_size = batch_size
        #: pending draws in REVERSE draw order, so ``list.pop()`` (O(1), off
        #: the tail) serves them in the original order.  The list identity
        #: never changes (see the class docstring).
        self._buffer: List[float] = []

    def _refill(self) -> None:
        a, b = self.a, self.b
        width = b - a
        rand = self._rng.random
        fresh = [a + width * rand() for _ in range(self._batch_size)]
        fresh.reverse()
        # Newly drawn values are served AFTER everything already pending, so
        # in the reversed buffer they sit below the existing tail.  The
        # in-place splice keeps the list object stable for closures.
        self._buffer[:0] = fresh

    def next(self) -> float:
        """The next pre-generated ``uniform(a, b)`` draw."""
        buffer = self._buffer
        if not buffer:
            self._refill()
        return buffer.pop()

    def uniform(self, a: float, b: float) -> float:
        """``Random.uniform``-compatible signature over the bound interval."""
        if a != self.a or b != self.b:
            raise ValueError(
                f"BatchedUniform is bound to [{self.a}, {self.b}]; "
                f"cannot serve a draw over [{a}, {b}] without desynchronising "
                "the pre-generated stream")
        buffer = self._buffer
        if not buffer:
            self._refill()
        return buffer.pop()

    def pending(self) -> int:
        """Number of already-generated draws not yet served (introspection)."""
        return len(self._buffer)


class BatchedRandom:
    """Pre-generated raw ``Random.random()`` draws, scaled at serve time.

    Where :class:`BatchedUniform` is bound to one interval,
    :class:`BatchedRandom` buffers the *unit* draws and applies the consumer's
    affine transform per serve.  That makes it the right drawer for a stream
    whose consumers interleave different uses — the simulator's jitter stream
    serves both the one-off ``uniform(0, period)`` timeout stagger of
    :meth:`~repro.sim.engine.Simulator.add_node` (which mid-run churn can
    invoke at any time) and the per-timeout reschedule factor — while keeping
    the draw *order* identical to calling the underlying ``Random`` directly.

    Bitwise equality: ``Random.uniform(a, b)`` is defined as
    ``a + (b - a) * self.random()`` with exactly one ``random()`` per call.
    :meth:`uniform` evaluates the identical expression on the buffered draw,
    and consumers of :attr:`_buffer` (the engine's fused timeout loop)
    replicate their original expressions verbatim, so every float is
    bit-identical to the unbatched engine's.

    Like :class:`BatchedUniform`, the buffer list is mutated in place — never
    rebound — so hot loops may capture it once.
    """

    __slots__ = ("_rng", "_batch_size", "_buffer")

    def __init__(self, rng: random.Random, batch_size: int = 1024) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._rng = rng
        self._batch_size = batch_size
        #: pending unit draws in REVERSE draw order (``pop()`` serves them in
        #: the original order); list identity is stable across refills.
        self._buffer: List[float] = []

    def _refill(self) -> None:
        rand = self._rng.random
        fresh = [rand() for _ in range(self._batch_size)]
        fresh.reverse()
        self._buffer[:0] = fresh

    def random(self) -> float:
        """The next pre-generated unit draw."""
        buffer = self._buffer
        if not buffer:
            self._refill()
        return buffer.pop()

    def uniform(self, a: float, b: float) -> float:
        """Bit-identical to ``Random.uniform(a, b)`` on the wrapped stream."""
        buffer = self._buffer
        if not buffer:
            self._refill()
        return a + (b - a) * buffer.pop()

    def pending(self) -> int:
        """Number of already-generated draws not yet served (introspection)."""
        return len(self._buffer)
