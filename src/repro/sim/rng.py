"""Seed-management helpers.

Every stochastic component of the simulator (message delays, timeout jitter,
probabilistic protocol actions, workload generators) draws from a
``random.Random`` instance derived deterministically from a single master
seed.  Deriving independent streams per component keeps experiments
reproducible while avoiding accidental correlation between, say, the order in
which timeouts fire and the coin flips inside the subscriber protocol.
There is no buffering layer: a consumer calls the ``Random`` it derived when
it needs the draw, so a stream's position says how many draws were used.
"""

from __future__ import annotations

import hashlib
import random


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

