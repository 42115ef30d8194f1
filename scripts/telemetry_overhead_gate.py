#!/usr/bin/env python
"""Gate: turning latency telemetry on must stay cheap.

With the network's latency histogram on (what ``build_system`` turns on for
a ``SystemSpec(telemetry=True)``), the engine's drain loop bumps one
histogram slot per delivered message.  This script measures what that
costs on an engine storm (2 000 nodes x 200 rounds, one message per node per
timeout — all engine, no protocol: the event mix of ``bench/``'s
``engine_storm``): it runs telemetry-off and telemetry-on back to back,
``--repeats`` times, in this process, and fails if the median of the
``on / off`` ratios of those adjacent pairs exceeds the threshold.  A storm
is timed in CPU seconds of this process (``time.process_time()``, as
``bench/`` times its regions), so time the host gives to other processes is
left out.  A pair's two runs are seconds apart, so a slow spell of the host
slows both; the minimum of each side pairs runs from different spells (on a
shared 2-core VM it read 1.15–1.39 over three gate runs whose pair ratios all
lay in 1.13–1.17), so it is printed beside the gated median, not gated.

Usage::

    python scripts/telemetry_overhead_gate.py
    python scripts/telemetry_overhead_gate.py --repeats 7
    python scripts/telemetry_overhead_gate.py --threshold 1.4

Both sides run on the same machine within seconds of each other, so the
ratio needs no baseline file and no assumption about the hardware.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import process_time

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.engine import Simulator, SimulatorConfig  # noqa: E402
from repro.sim.node import ProtocolNode  # noqa: E402

NODES = 2_000
ROUNDS = 200
DEFAULT_THRESHOLD = 1.20
DEFAULT_REPEATS = 5


class _Chatter(ProtocolNode):
    """One message per timeout to a fixed neighbour (the ``engine_storm`` event mix)."""

    __slots__ = ()

    def on_timeout(self) -> None:
        self.send(self.node_id % NODES + 1, "Ping", sender=self.node_id)

    def on_Ping(self, sender, topic=None) -> None:
        pass


def storm_seconds(telemetry: bool) -> float:
    """CPU seconds of one storm run (setup excluded)."""
    sim = Simulator(SimulatorConfig(seed=42))
    if telemetry:
        sim.network.stats.enable_latency()
    for i in range(NODES):
        sim.add_node(_Chatter(i + 1))
    start = process_time()
    sim.run_rounds(ROUNDS)
    seconds = process_time() - start
    latency = sim.network.stats.delivery_latency
    samples = 0 if latency is None else latency.total
    if telemetry and samples != sim.network.stats.total_delivered:
        raise SystemExit(f"telemetry recorded {samples} samples for "
                         f"{sim.network.stats.total_delivered} deliveries")
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="off/on pairs; the median pair ratio gates "
                             f"(default {DEFAULT_REPEATS})")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="largest allowed median on/off CPU-time ratio "
                             f"(default {DEFAULT_THRESHOLD:g})")
    args = parser.parse_args(argv)

    off, on = [], []
    for _ in range(max(args.repeats, 1)):
        off.append(storm_seconds(False))
        on.append(storm_seconds(True))
    pairs = [b / a for a, b in zip(off, on)]
    ratio = statistics.median(pairs)
    print(f"telemetry on-cost gate, {NODES} nodes x {ROUNDS} rounds "
          f"(statistic: median of {len(pairs)} adjacent off/on pair ratios)")
    print("  off:   " + " ".join(f"{seconds:.3f}" for seconds in off))
    print("  on:    " + " ".join(f"{seconds:.3f}" for seconds in on))
    print("  pairs: " + " ".join(f"{pair:.3f}" for pair in pairs))
    print(f"  median pair ratio: {ratio:.3f}   "
          f"(min on / min off: {min(on) / min(off):.3f})")
    if ratio > args.threshold:
        print(f"FAIL: telemetry-on CPU time is {ratio:.3f}x telemetry-off in the "
              f"median pair (> {args.threshold:g} allowed)", file=sys.stderr)
        return 1
    print(f"OK: on/off <= {args.threshold:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
