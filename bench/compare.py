#!/usr/bin/env python3
"""Compare two documents written by ``bench/run.py --out`` — the
repeatability check (same code twice) and the regression check (parent vs
change).

    python3 bench/compare.py A.json B.json

One row per (workload, metric).  Simulated quantities (counts, rounds,
messages per op, ratios of counts, ``sim_digest``) are exact for a seed and
must be *equal*.  Host quantities with a bound in ``BENCHMARK.json`` may
differ by at most that share of A's value; a metric whose recorded
per-repeat spread (quartile distance over median, either side) exceeds its
bound is reported as ``unresolved``, never as ``unchanged``.  Per-layer host
times have no bound and are shown for information.  Exits 1 when any metric
is ``WORSE`` or any exact quantity differs, 2 when the two documents are
not comparable (different seed, seconds or scale).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Units of deterministic quantities.
EXACT_UNITS = frozenset({"count", "rounds", "bytes", "messages/op"})
#: Ratios of two deterministic counts (the other ratios are host-time based).
EXACT_RATIOS = frozenset({
    "analysis.convergence.useful_ratio", "pubsub.flooding.useful_ratio",
    "pubsub.antientropy.useful_ratio", "sim.network.delivered_ratio",
    "bench.failed_share",
})


def is_exact(name: str, unit: str) -> bool:
    # Call counts under cProfile are *not* exact: string hashing is salted
    # per process, set iteration order follows it, and early-exit loops over
    # sets (``all(... for key in keys)``) then make a few calls more or less.
    # The simulated outcome does not depend on it; ``sim_digest`` proves that.
    if name.endswith(".calls"):
        return False
    return unit in EXACT_UNITS or name in EXACT_RATIOS


def spread(values: List[float]) -> float:
    """Quartile distance over median (0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def judge(name: str, unit: str, a: float, b: float,
          bound: Optional[float], better: str,
          samples: Tuple[List[float], List[float]]) -> Tuple[str, float]:
    """``(status, relative change of B against A)``."""
    relative = (b - a) / a if a else (0.0 if b == a else float("inf"))
    if is_exact(name, unit):
        return ("equal" if a == b else "MISMATCH"), relative
    if bound is None:
        return "info", relative
    worsening = -relative if better == "higher" else relative
    if worsening > bound:
        return "WORSE", relative
    if worsening < -bound:
        return "better", relative
    if max(spread(samples[0]), spread(samples[1])) > bound:
        return "unresolved", relative
    return "unchanged", relative


def compare(doc_a: Dict, doc_b: Dict, benchmark: Dict) -> Tuple[List[Tuple], int]:
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    rows: List[Tuple] = []
    breaches = 0
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"][workload]
        for pass_name in ("untraced", "traced"):
            run_a, run_b = entry_a[pass_name], entry_b[pass_name]
            same = run_a["sim_digest"] == run_b["sim_digest"]
            rows.append((workload, f"sim_digest ({pass_name})", "", "", "",
                         "equal" if same else "MISMATCH"))
            breaches += not same
            for name, metric_a in run_a["metrics"].items():
                metric_b = run_b["metrics"][name]
                spec = declared.get(name, {})
                status, relative = judge(
                    name, metric_a["unit"], metric_a["value"],
                    metric_b["value"], spec.get("bound"),
                    spec.get("better", "lower"),
                    (run_a.get("samples", {}).get(name, []),
                     run_b.get("samples", {}).get(name, [])))
                breaches += status in ("WORSE", "MISMATCH")
                rows.append((workload, name, metric_a["value"],
                             metric_b["value"], relative, status))
    return rows, breaches


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in args)
    for key in ("seed", "seconds", "scale"):
        if doc_a[key] != doc_b[key]:
            print(f"not comparable: {key} is {doc_a[key]} in A and "
                  f"{doc_b[key]} in B", file=sys.stderr)
            return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, breaches = compare(doc_a, doc_b, benchmark)
    print(f"{'workload':<20s} {'metric':<44s} {'A':>14s} {'B':>14s} "
          f"{'B vs A':>9s}  status")
    for workload, name, a, b, relative, status in rows:
        if a == "":
            print(f"{workload:<20s} {name:<44s} {'':>14s} {'':>14s} "
                  f"{'':>9s}  {status}")
        else:
            print(f"{workload:<20s} {name:<44s} {a:>14.6g} {b:>14.6g} "
                  f"{relative:>+9.2%}  {status}")
    tally: Dict[str, int] = {}
    for row in rows:
        tally[row[-1]] = tally.get(row[-1], 0) + 1
    print("summary: " + ", ".join(f"{count} {status}"
                                  for status, count in sorted(tally.items())))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
