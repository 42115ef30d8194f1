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

    # where does the *time* go, without cProfile's per-call cost?  (sampling)
    python scripts/profile_hotpath.py join_stabilize --sample --sort tottime

Profiling overhead is large (~2-3x wall) and skews toward call-heavy code,
so compare *shapes* between runs, never absolute times — ``bench/run.py``
owns absolute numbers.  ``--tracemalloc`` switches the instrument from time
to memory: the run executes under :mod:`tracemalloc` and the report ranks
source lines by bytes still allocated at the run's peak — the view that
finds what the hot loops keep alive (pending event tuples, per-node message
counts), complementing the ``peak_rss_mb`` the benchmark records per workload.

``--sample`` switches the instrument to a stack sampler (stdlib only:
``signal.setitimer(ITIMER_PROF)``).  cProfile pays a fixed cost per call (a
``join_stabilize`` region runs about 2.8x slower under it), so its shares
tilt toward call-heavy code such as the label helpers, a few lines each; a
sample costs nothing per call.  Each tick of the process's CPU-time timer
records the interrupted Python stack: its top frame takes the sample as
*self* (the builtins it was calling included) and every function on it as
*cumulative*.  Python runs the handler at its next check for signals (a
call, a function's entry, a loop's back edge), so a tick inside plain
bytecode lands there, most often in the same function.  So a message
handler's *self* share includes the engine's ``handler(node, **params)``
call — binding the keyword arguments to its parameters — since a tick taken
during that binding is handled at the callee's entry: a line-level look put
8.3 of ``on_PublishNew``'s 10.5 % self share on its ``def`` line.  Read that
share as dispatch cost, not handler work.  The
kernel delivers the tick at its own granularity (about 4 ms of CPU on a
250 Hz kernel, however short the requested interval), so one timed region
of tens of milliseconds yields a handful of samples: the mode repeats set-up
and region over consecutive seeds until at least :data:`MIN_SAMPLES` samples
(about ±1 % on a share, one binomial sigma at worst) fell inside regions.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib.util
import json
import os
import pstats
import signal
import sys
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.pubsub.hashing import node_hash

DEFAULT_TOP = 25
#: Seed of the profiled repeat: repeat 0 of the benchmark's default ``--seed 11``.
WORKLOAD_SEED = 11_000
#: ``--sample``: the CPU-time interval asked of ``ITIMER_PROF`` (the kernel
#: rounds it up to its tick) and the fewest samples a run collects.
SAMPLE_INTERVAL_S = 0.001
MIN_SAMPLES = 2_000


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
    parser.add_argument("--sample", action="store_true",
                        help="sample the stack on a CPU-time timer instead of "
                             "tracing every call: each function's self and "
                             "cumulative share of the timed region, over "
                             f"repeats until {MIN_SAMPLES} samples (a "
                             "handler's self share includes the engine's "
                             "keyword binding of its params: the tick is "
                             "handled at the callee's entry)")
    parser.add_argument("--list", action="store_true",
                        help="list the benchmark's workloads and exit")
    args = parser.parse_args(argv)

    if args.list:
        for workload in workloads.values():
            print(f"{workload.name:22s} {workload.why}")
        return 0

    if args.sample and (args.tracemalloc or args.out is not None or args.sort == "ncalls"):
        parser.error("--sample counts no calls and writes no pstats: it takes "
                     "neither --tracemalloc, --out nor --sort ncalls")
    workload = workloads[args.workload]
    print(f"profiling {workload.name} ({workload.why})")
    if args.sample:
        return run_sampler(workload, args)
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
    pending-event backlog and the message counts are still alive then).

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


def sample_regions(workload, size: dict, min_samples: int = MIN_SAMPLES) -> dict:
    """Sample the timed region of repeats at ``size`` and seeds
    ``WORKLOAD_SEED``, ``WORKLOAD_SEED + 1``, ... (set-up and check outside
    the sampled span) until ``min_samples`` samples fell inside regions.

    Returns ``samples``, ``repeats``, ``cpu_s`` (the regions' CPU seconds,
    ``time.process_time``), ``failed`` (ops the workloads' checks failed) and
    ``self``/``cumulative``: sample counts per code object.  A function's
    cumulative count takes each sample once however often it recurs on the
    stack, and the walk stops at :func:`timed_region`'s frame.
    """
    own, under = Counter(), Counter()
    region = timed_region.__code__
    active = False
    samples = repeats = failed = 0
    cpu = 0.0

    def on_tick(signum, frame):
        nonlocal samples
        if not active or frame is None:
            return
        samples += 1
        own[frame.f_code] += 1
        seen = set()
        while frame is not None and frame.f_code is not region:
            if frame.f_code not in seen:
                seen.add(frame.f_code)
                under[frame.f_code] += 1
            frame = frame.f_back

    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        while samples < min_samples:
            state = workload.setup(WORKLOAD_SEED + repeats, size)
            started = time.process_time()
            active = True
            try:
                timed_region(workload, state)
            finally:
                active = False
            cpu += time.process_time() - started
            failed += workload.check(state)
            repeats += 1
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return {"samples": samples, "repeats": repeats, "cpu_s": cpu, "failed": failed,
            "self": own, "cumulative": under}


def _code_name(code) -> str:
    """``file:line(function)``, the name pstats' ``strip_dirs`` prints."""
    return f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}({code.co_name})"


def run_sampler(workload, args) -> int:
    """The ``--sample`` mode: print (and with ``--json`` write) the top
    functions by cumulative share (``--sort tottime``: by self share)."""
    sampled = sample_regions(workload, workload.sizes())
    samples = sampled["samples"]
    key = "self" if args.sort == "tottime" else "cumulative"
    codes = sorted(sampled["cumulative"], key=lambda code: (-sampled[key][code],
                                                            _code_name(code)))
    rows = [{"function": _code_name(code),
             "self_share": round(sampled["self"][code] / samples, 4),
             "cumulative_share": round(sampled["cumulative"][code] / samples, 4)}
            for code in codes[:args.top]]
    print(f"{samples:,} samples over {sampled['repeats']} repeats "
          f"({sampled['cpu_s']:.2f} s of region CPU: one sample per "
          f"{1000 * sampled['cpu_s'] / samples:.2f} ms)")
    if sampled["failed"]:
        print(f"WARNING: {sampled['failed']} ops failed the workload's check — "
              f"this is the profile of a wrong run")
    print(f"{'self':>7s} {'cum':>7s}  function")
    for row in rows:
        print(f"{row['self_share']:7.1%} {row['cumulative_share']:7.1%}  {row['function']}")
    if args.json_out is not None:
        args.json_out.write_text(json.dumps({
            "case": workload.name,
            "description": workload.why,
            "mode": "sample",
            "samples": samples,
            "repeats": sampled["repeats"],
            "region_cpu_s": round(sampled["cpu_s"], 4),
            "sort": key,
            "top": rows,
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote JSON sample profile to {args.json_out}")
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
