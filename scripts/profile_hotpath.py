#!/usr/bin/env python
"""Profile one bench case with cProfile and print the top cumulative hits.

The perf suite answers "did it get slower?"; this script answers "where does
the time go?".  It runs any case from the bench matrix
(:data:`repro.perf.cases.BENCH_CASES`) or any of the six workloads of the
repo benchmark (``bench/workloads.py``: set-up outside the profiler, the
timed region inside, the workload's own correctness check after) under
:mod:`cProfile` in-process and prints the top functions by cumulative time —
the view that surfaces the engine's block loop, the scheduler drains, the
protocol handlers and the legitimacy oracle in one screen.

Usage::

    python scripts/profile_hotpath.py                    # core_2k_wheel
    python scripts/profile_hotpath.py core_50k_wheel
    python scripts/profile_hotpath.py join_stabilize     # a paper-level operation
    python scripts/profile_hotpath.py --top 40 --sort tottime
    python scripts/profile_hotpath.py --out storm.pstats # for snakeviz etc.
    python scripts/profile_hotpath.py --json prof.json   # structured top-N

    # where do the *allocations* come from?  (tracemalloc, not cProfile)
    python scripts/profile_hotpath.py core_50k_wheel --tracemalloc
    python scripts/profile_hotpath.py --tracemalloc --json alloc.json

Profiling overhead is large (~2-3x wall) and skews toward call-heavy code,
so compare *shapes* between runs, never absolute times — the bench suite
owns absolute numbers.  ``--tracemalloc`` switches the instrument from time
to memory: the run executes under :mod:`tracemalloc` and the report ranks
source lines by bytes still allocated at the run's peak — the view that
finds what the hot loops keep alive (pending event tuples, stats columns),
complementing the RSS numbers the bench suite records per repeat.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import json
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.cases import BENCH_CASES, BenchCase, get_case  # noqa: E402

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


def resolve_case(name: str):
    """``(case, check)``: a bench-matrix case, or a benchmark workload wrapped
    as one — built here, so ``case.run`` is the workload's timed region alone;
    ``check(payload)`` returns its number of failed ops (matrix cases: 0)."""
    workload = _benchmark_workloads().get(name)
    if workload is None:
        return get_case(name), lambda payload: 0
    state = workload.setup(WORKLOAD_SEED, workload.sizes())

    def run():
        before = state.sim.steps_executed
        workload.run(state, None)
        return state.sim.steps_executed - before, state

    return BenchCase(name, workload.why, run), workload.check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("case", nargs="?", default="core_2k_wheel",
                        help="bench case to profile (default core_2k_wheel; "
                             "--list shows the matrix)")
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
                        help="list the bench matrix and exit")
    args = parser.parse_args(argv)

    if args.list:
        rows = [(case.name, case.description) for case in BENCH_CASES]
        rows += [(workload.name, workload.why) for workload in _benchmark_workloads().values()]
        for name, text in rows:
            print(f"{name:22s} {text}")
        return 0

    case, check = resolve_case(args.case)
    print(f"profiling {case.name} ({case.description})")

    if args.tracemalloc:
        return run_tracemalloc(case, args)

    profiler = cProfile.Profile()
    profiler.enable()
    events, payload = case.run()
    profiler.disable()
    failed = check(payload)
    del payload
    if failed:
        print(f"WARNING: {failed} ops failed the workload's check — "
              f"this is the profile of a wrong run")

    stats = pstats.Stats(profiler, stream=sys.stdout)
    if events:
        print(f"events processed: {events:,}")
        print(f"calls/event: {calls_per_event(stats, events):.1f} "
              f"({stats.prim_calls:,} primitive calls)")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"wrote raw profile to {args.out}")
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(
            profile_payload(stats, case, events, args.sort, args.top),
            indent=2, sort_keys=True) + "\n")
        print(f"wrote JSON profile to {args.json_out}")
    return 0


def run_tracemalloc(case, args) -> int:
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
    events, payload = case.run()
    snapshot = tracemalloc.take_snapshot()
    traced_current, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del payload

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
            "case": case.name,
            "description": case.description,
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


#: pstats sort key -> index into the per-function stats tuple (cc, nc, tt, ct).
_SORT_VALUE = {"cumulative": 3, "tottime": 2, "ncalls": 1}


def profile_payload(stats: pstats.Stats, case, events,
                    sort: str, top: int) -> dict:
    """The ``--json`` artifact: run context plus the top-N functions.

    Wall times in here carry cProfile's 2-3x instrumentation overhead — the
    artifact is for comparing *shapes* across commits (which functions climbed
    the table), never absolute regressions; the bench suite owns those.
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
    return {
        "case": case.name,
        "description": case.description,
        "events": events,
        "calls_per_event": round(calls_per_event(stats, events), 2),
        "sort": sort,
        "total_functions": len(rows),
        "top": rows[:top],
    }


if __name__ == "__main__":
    sys.exit(main())
