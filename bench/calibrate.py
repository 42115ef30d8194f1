"""A yardstick for the speed of the host at this moment.

The benchmark's host times are taken on a few cores of a shared machine.
The same code has been seen at half speed for whole runs at a stretch
(neighbours on the same cores and caches; one memory-bound process beside
the benchmark in this very VM takes 9-28 % off every raw rate, in CPU
seconds as much as in wall seconds), which no statistic over the repeats
*inside* a run can remove: every repeat is slow.  What does remove most of
it is a fixed piece of work timed next to every repeat.  ``kernel`` is that
work: pure standard-library Python with the same diet as the simulator
(object allocation, dict and heap traffic, method calls, small sorts,
``Fraction`` comparisons, a little hashing) over cells scattered across a
few MiB of heap, and nothing from ``repro`` — so no change to the program
can move it.  A host time is reported in *reference seconds*: measured CPU
seconds times ``REFERENCE_S`` over the kernel's CPU seconds around it.  On a
quiet machine of the class the baseline was taken on the factor is 1.
"""

from __future__ import annotations

import hashlib
import heapq
import statistics
from fractions import Fraction
from time import process_time
from typing import Dict, List

#: CPU seconds one ``kernel()`` call takes on the quiet baseline machine
#: (median of 1 500 calls; Xeon 2.1 GHz VM, CPython 3.11).  Only fixes the
#: scale of the reported numbers; every comparison is between runs that
#: share it.
REFERENCE_S = 0.0146

#: Kernel calls per sample (one sample sits between two repeats).
PIECES = 10


class _Cell:
    __slots__ = ("key", "weight", "seen")

    def __init__(self, key: int, weight: Fraction) -> None:
        self.key = key
        self.weight = weight
        self.seen = 0

    def touch(self, step: int) -> int:
        self.seen += 1
        return (self.key ^ step) & 0xFFFF


#: The working set, built once.  The kernel's walk has period 4 096: it
#: visits every fourth cell, so its footprint is 4 096 cells and their
#: fractions scattered over about 3 MiB of heap.
_CELLS: Dict[int, _Cell] = {
    i: _Cell(i, Fraction(2 * i + 1, 1 << (i % 12 + 1))) for i in range(16_384)}


def kernel() -> int:
    """One fixed unit of work; the return value only keeps it honest."""
    cells = _CELLS
    heap: List[tuple] = []
    acc = 0
    index = 1
    for step in range(14_000):
        index = (index * 40_503 + 1) & 0x3FFF
        cell = cells[index]
        acc += cell.touch(step)
        heapq.heappush(heap, (acc & 0xFFF, step, cell.key))
        if len(heap) > 64:
            acc ^= heapq.heappop(heap)[2]
        if not step & 255:
            ordered = sorted(heap[:32], key=lambda item: cells[item[2]].weight)
            acc += ordered[0][1]
            acc ^= hashlib.sha256(acc.to_bytes(8, "little")).digest()[0]
    return acc


class Yardstick:
    """Kernel timings taken through a run, one ``sample()`` between repeats."""

    def __init__(self) -> None:
        #: per sample: the CPU seconds of each of its pieces
        self.cpu: List[List[float]] = []

    def sample(self) -> None:
        pieces = []
        for _ in range(PIECES):
            started = process_time()
            kernel()
            pieces.append(process_time() - started)
        self.cpu.append(pieces)

    def around(self, repeat: int) -> float:
        """Kernel CPU seconds next to repeat ``repeat``: the median of the
        pieces of the sample before it and the sample after it."""
        return statistics.median(self.cpu[repeat] + self.cpu[repeat + 1])
