#!/usr/bin/env python
"""Profile one benchmark workload with cProfile and print the top cumulative hits.

The repo benchmark (``bench/``) answers "did it get slower?"; this script
answers "where does the time go?".  It runs any of the benchmark's six
workloads (``bench/workloads.py``: set-up outside the profiler, the timed
region inside, the workload's own correctness check after) under
:mod:`cProfile` in-process and prints the top functions by cumulative time —
the view that surfaces the engine's block loop, the scheduler drains, the
protocol handlers and the legitimacy oracle in one screen.

Usage::

    python scripts/profile_hotpath.py                    # engine_storm
    python scripts/profile_hotpath.py join_stabilize     # a paper-level operation
    python scripts/profile_hotpath.py --top 40 --sort tottime
    python scripts/profile_hotpath.py --out storm.pstats # for snakeviz etc.
    python scripts/profile_hotpath.py --json prof.json   # structured top-N

    # where do the *allocations* come from?  (tracemalloc, not cProfile)
    python scripts/profile_hotpath.py publish_fanout --tracemalloc
    python scripts/profile_hotpath.py --tracemalloc --json alloc.json

Profiling overhead is large (~2-3x wall) and skews toward call-heavy code,
so compare *shapes* between runs, never absolute times — ``bench/run.py``
owns absolute numbers.  ``--tracemalloc`` switches the instrument from time
to memory: the run executes under :mod:`tracemalloc` and the report ranks
source lines by bytes still allocated at the run's peak — the view that
finds what the hot loops keep alive (pending event tuples, stats columns),
complementing the ``peak_rss_mb`` the benchmark records per workload.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib.util
import json
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.pubsub.hashing import node_hash

DEFAULT_TOP = 25
#: Seed of the profiled repeat: repeat 0 of the benchmark's default ``--seed 11``.
WORKLOAD_SEED = 11_000


def _benchmark_workloads() -> dict:
    """``bench/workloads.py::BY_NAME``, imported by path and only read."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO_ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BY_NAME


def timed_region(workload, state) -> int:
    """Run the workload's timed region alone (``state`` is its finished
    set-up) and return the number of simulator events it processed."""
    before = state.sim.steps_executed
    workload.run(state, None)
    return state.sim.steps_executed - before


def profile_region(workload, state):
    """The timed region under :mod:`cProfile`: ``(stats, events, region)``.

    ``region`` holds what the profile itself cannot show: the ``node_hash``
    memo's hit rate (its counters around the region) and the cyclic
    collector's share of the region's wall time and its collection count
    (a ``gc.callbacks`` hook installed around the region).  cProfile slows
    the region 2-3x but not the collector, so the share is a lower bound of
    the unprofiled one.
    """
    profiler = cProfile.Profile()
    memo_before = node_hash.cache_info()
    marks = []  # perf_counter() at each collection's start and stop

    def on_gc(phase, info):
        marks.append(time.perf_counter())

    gc.callbacks.append(on_gc)
    started = time.perf_counter()
    profiler.enable()
    try:
        events = timed_region(workload, state)
    finally:
        profiler.disable()
        wall = time.perf_counter() - started
        gc.callbacks.remove(on_gc)
    gc_seconds = sum(marks[1::2]) - sum(marks[0::2])
    return pstats.Stats(profiler, stream=sys.stdout), events, {
        "node_hash_memo_hit_rate": round(memo_hit_rate(memo_before, node_hash.cache_info()), 4),
        "gc_share": round(gc_seconds / wall, 4) if wall > 0 else 0.0,
        "gc_collections": len(marks) // 2,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = _benchmark_workloads()
    parser.add_argument("workload", nargs="?", default="engine_storm",
                        choices=list(workloads),
                        help="benchmark workload to profile (default "
                             "engine_storm; --list describes them)")
    parser.add_argument("--top", type=int, default=DEFAULT_TOP,
                        help=f"rows to print (default {DEFAULT_TOP})")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also dump raw pstats data to this file")
    parser.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="also write the top-N rows as a structured JSON "
                             "artifact (for CI upload / trend tooling)")
    parser.add_argument("--tracemalloc", action="store_true",
                        help="profile allocations instead of time: run under "
                             "tracemalloc and report the top-N allocation "
                             "sites by bytes live at the run's peak")
    parser.add_argument("--list", action="store_true",
                        help="list the benchmark's workloads and exit")
    args = parser.parse_args(argv)

    if args.list:
        for workload in workloads.values():
            print(f"{workload.name:22s} {workload.why}")
        return 0

    workload = workloads[args.workload]
    print(f"profiling {workload.name} ({workload.why})")
    state = workload.setup(WORKLOAD_SEED, workload.sizes())

    if args.tracemalloc:
        return run_tracemalloc(workload, state, args)

    stats, events, region = profile_region(workload, state)
    failed = workload.check(state)
    if failed:
        print(f"WARNING: {failed} ops failed the workload's check — "
              f"this is the profile of a wrong run")

    if events:
        print(f"events processed: {events:,}")
        print(f"calls/event: {calls_per_event(stats, events):.1f} "
              f"({stats.prim_calls:,} primitive calls), "
              f"gc: {region['gc_share']:.1%} of the region "
              f"in {region['gc_collections']} collections")
        print(f"sha256/op: {sha256_per_op(stats, workload.ops(state)):.2f} "
              f"(node_hash memo: {region['node_hash_memo_hit_rate']:.1%} hits), "
              f"decodes/op: {decodes_per_op(stats, workload.ops(state)):.2f} "
              f"(per {workload.op})")
        share, checks = oracle_cost(stats, workload.ops(state))
        print(f"oracle: {share:.1%} of the region, {checks:.4f} checks/op")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"wrote raw profile to {args.out}")
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(
            profile_payload(stats, workload, events, workload.ops(state),
                            args.sort, args.top, region),
            indent=2, sort_keys=True) + "\n")
        print(f"wrote JSON profile to {args.json_out}")
    return 0


def run_tracemalloc(workload, state, args) -> int:
    """The ``--tracemalloc`` mode: rank allocation sites by bytes live at
    the run's peak (snapshot taken at the traced-memory high-water mark is
    approximated by snapshotting right after the run, before teardown — the
    pending-event backlog and every column are still alive then).

    tracemalloc costs far more than cProfile (every allocation records a
    traceback), so wall times in this mode mean nothing; the byte counts
    are exact for everything allocated while tracing.
    """
    import tracemalloc

    tracemalloc.start()
    events = timed_region(workload, state)
    snapshot = tracemalloc.take_snapshot()
    traced_current, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    if events:
        print(f"events processed: {events:,}")
    print(f"traced memory: {traced_current / 2**20:.1f} MiB live at end, "
          f"{traced_peak / 2**20:.1f} MiB peak")
    top = snapshot.statistics("lineno")
    rows = []
    for stat in top[:args.top]:
        frame = stat.traceback[0]
        rows.append({
            "file": frame.filename,
            "line": frame.lineno,
            "size_bytes": stat.size,
            "count": stat.count,
        })
        print(f"  {stat.size / 2**20:8.2f} MiB  {stat.count:>9,} blocks  "
              f"{frame.filename}:{frame.lineno}")
    if args.json_out is not None:
        args.json_out.write_text(json.dumps({
            "case": workload.name,
            "description": workload.why,
            "events": events,
            "mode": "tracemalloc",
            "traced_current_bytes": traced_current,
            "traced_peak_bytes": traced_peak,
            "total_sites": len(top),
            "top": rows,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote JSON allocation profile to {args.json_out}")
    return 0


def calls_per_event(stats: pstats.Stats, events: int) -> float:
    """Primitive (non-recursive) calls per simulator event: how many Python
    and builtin frames one event costs, the number ROADMAP item 4 tracks."""
    return stats.prim_calls / events if events else 0.0


def sha256_per_op(stats: pstats.Stats, ops: int) -> float:
    """SHA-256 digests started per workload op (``Workload.ops``): every hash
    of :mod:`repro.pubsub.hashing` is one ``openssl_sha256`` call."""
    calls = sum(row[1] for (_, _, name), row in stats.stats.items()
                if "openssl_sha256" in name)
    return calls / ops if ops else 0.0


def memo_hit_rate(before, after) -> float:
    """Share of the ``node_hash`` calls between two ``cache_info()`` readings
    that the memo answered without hashing (0 when there were none)."""
    hits, misses = after.hits - before.hits, after.misses - before.misses
    return hits / (hits + misses) if hits + misses else 0.0


def decodes_per_op(stats: pstats.Stats, ops: int) -> float:
    """``Publication.from_wire`` calls per workload op: how often a received
    publication wire (or a new publication) was decoded rather than found
    stored as a copy."""
    calls = sum(row[1] for (filename, _, name), row in stats.stats.items()
                if name == "from_wire" and filename.endswith("publications.py"))
    return calls / ops if ops else 0.0


#: The legitimacy oracle's entry points in ``repro.analysis.convergence``.
ORACLE_CHECKS = ("ring_legitimate", "publications_converged")


def oracle_cost(stats: pstats.Stats, ops: int) -> tuple[float, float]:
    """``(share, checks per op)``: cumulative time under the oracle's entry
    points over the profiled region's total, and how often they were called."""
    rows = [row for (filename, _, name), row in stats.stats.items()
            if name in ORACLE_CHECKS and filename.endswith("convergence.py")]
    share = sum(row[3] for row in rows) / stats.total_tt if stats.total_tt else 0.0
    checks = sum(row[1] for row in rows)
    return share, (checks / ops if ops else 0.0)


#: pstats sort key -> index into the per-function stats tuple (cc, nc, tt, ct).
_SORT_VALUE = {"cumulative": 3, "tottime": 2, "ncalls": 1}


def profile_payload(stats: pstats.Stats, workload, events, ops,
                    sort: str, top: int, region: dict) -> dict:
    """The ``--json`` artifact: run context, ``region`` (``profile_region``'s
    memo and collector readings) and the top-N functions.

    Wall times in here carry cProfile's 2-3x instrumentation overhead — the
    artifact is for comparing *shapes* across commits (which functions climbed
    the table), never absolute regressions; ``bench/compare.py`` owns those.
    """
    rows = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append({
            "function": name,
            "file": filename,
            "line": line,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime": round(tt, 6),
            "cumtime": round(ct, 6),
        })
    value_index = ("primitive_calls", "ncalls", "tottime", "cumtime")[
        _SORT_VALUE[sort]]
    rows.sort(key=lambda row: row[value_index], reverse=True)
    oracle_share, oracle_checks = oracle_cost(stats, ops)
    return {
        "case": workload.name,
        "description": workload.why,
        "events": events,
        "calls_per_event": round(calls_per_event(stats, events), 2),
        "sha256_per_op": round(sha256_per_op(stats, ops), 3),
        **region,
        "decodes_per_op": round(decodes_per_op(stats, ops), 3),
        "oracle_share": round(oracle_share, 4),
        "oracle_checks_per_op": round(oracle_checks, 5),
        "sort": sort,
        "total_functions": len(rows),
        "top": rows[:top],
    }


if __name__ == "__main__":
    sys.exit(main())
