#!/usr/bin/env python3
"""The repo benchmark: six paper-level workloads through the public API.

Two ways to run it (both from the repository root, no install step)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed 11] [--out FILE]

The first form is one *run*: one workload, in this process, repeated on
freshly built systems until ``--seconds`` are used up.  Its last stdout
line is the JSON result object (``correct`` / ``attempted`` / ``failed`` /
``metrics``): every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  The second form runs all six workloads, each in
a fresh subprocess, untraced then traced, prints every metric by name with
its unit and exits non-zero if any op failed.

Two kinds of numbers that must never be mixed: *simulated* cost (rounds,
messages — what the modelled protocol pays; exact for a seed) and *host*
cost (what the simulator takes to run it; noisy).  Host times are CPU
seconds of this single-threaded process, scaled by a fixed kernel timed next
to every repeat (``bench/calibrate.py``).  See ``bench/README.md``.
"""

from __future__ import annotations

from time import perf_counter, process_time

_PROCESS_START = perf_counter()

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The program under test is used from source; the benchmark's own modules
# sit next to this file.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure — {ROOT / 'src' / 'repro'} "
             f"is missing")
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import calibrate  # noqa: E402
import trace as spans_and_profile  # noqa: E402  (bench/trace.py)
import workloads  # noqa: E402

from repro.core import messages as msg  # noqa: E402

#: Host seconds to import the program and the workloads.  Reported apart
#: (``bench.import_s``), not inside ``setup_s``: between quiet and noisy
#: phases of this VM import time moved 30-40 % (file-system calls) while
#: compute moved under 10 %, which no bound of at most 0.25 can hold.
IMPORT_S = perf_counter() - _PROCESS_START

DEFAULT_SEED = 11
OUT_DIR = BENCH_DIR / "out"

#: Repeats every run makes, however slow the host.  The simulated quantities
#: of a run (``msgs_per_op``, ``sim_digest``) come from these alone, so they
#: depend on ``--seed`` and never on the clock.
MIN_REPEATS = 4


def sub_seed(seed: int, repeat: int) -> int:
    """Seed of one repeat.  Repeats of a run use *different* seeds so a run
    samples the seed-dependence of the workload (rounds to recover vary by
    2x between seeds) instead of inheriting one draw of it."""
    return seed * 1000 + repeat


# ------------------------------------------------------------ one repeat
def _timeouts(sim) -> int:
    return sum(sim.timeout_counts.values())


def _digest(state) -> str:
    """sha256 over everything a behaviour change would move: final message
    statistics, clock, step count, and each member's label and publication
    keys (timeout counts when there is no facade)."""
    sim, system = state.sim, state.system
    parts: List[object] = [sim.network.stats.to_summary_dict(), sim.now,
                           sim.steps_executed]
    if system is None:
        parts.append(sorted(sim.timeout_counts.items()))
    else:
        for topic in sorted(system.registry.topics()):
            for member in system.members(topic):
                subscriber = system.subscribers[member]
                parts.append([topic, member, subscriber.label(topic),
                              sorted(p.key for p in
                                     subscriber.publications(topic))])
    blob = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def measure_repeat(wl: workloads.Workload, seed: int, size: Dict[str, int],
                   *, max_rounds: Optional[int] = None,
                   recorder: Optional[spans_and_profile.SpanRecorder] = None,
                   profiler: Optional[cProfile.Profile] = None
                   ) -> Dict[str, object]:
    """Set up, run and check one repeat; everything observed about it.
    ``setup_s`` and ``timed_s`` are CPU seconds of this process: the program
    is single-threaded and never waits, so they equal wall seconds on an
    idle host and leave out the time the host gave to someone else."""
    # A cheap set-up is made several times over so that what is timed is
    # tens of milliseconds, not a fraction of one; the last build is used.
    builds = 1 if recorder else wl.setup_builds
    gc.collect()
    started = process_time()
    setup_span = recorder.open("bench.setup") if recorder else None
    for _ in range(builds):
        state = wl.setup(seed, size)
    if recorder:
        recorder.close(setup_span)
    setup_s = (process_time() - started) / builds

    sim = state.sim
    stats = sim.network.stats
    stats_before = stats.snapshot()
    now_before, steps_before = sim.now, sim.steps_executed
    timeouts_before = _timeouts(sim)
    tracer_before = dict(sim.tracer.counters)
    if recorder:
        # The engine's own drain tally: an event count independent of
        # steps_executed, for the cross-check.
        sim.enable_profiling()
    gc.collect()

    timed_span = recorder.open("bench.timed") if recorder else None
    if profiler:
        profiler.enable()
    timed_wall_start, timed_start = perf_counter(), process_time()
    wl.run(state, max_rounds)
    timed_s = process_time() - timed_start
    timed_wall_s = perf_counter() - timed_wall_start
    if profiler:
        profiler.disable()
    if recorder:
        recorder.close(timed_span)

    delta = stats.delta(stats_before)
    supervisors = state.system.supervisor_node_ids() if state.system else []
    tracer = sim.tracer.counters
    out: Dict[str, object] = {
        "seed": seed,
        "setup_s": setup_s,
        "timed_s": timed_s,
        "timed_wall_s": timed_wall_s,
        "ops": wl.ops(state),
        "failed": wl.check(state),
        # Rounds until the completion predicate first held, when the workload
        # keeps running past it; else the rounds the timed region took.
        "sim_rounds": getattr(
            state, "rounds_to_goal",
            (sim.now - now_before) / sim.config.timeout_period),
        "events": sim.steps_executed - steps_before,
        "timeouts": _timeouts(sim) - timeouts_before,
        "msgs": delta.total_sent,
        "delivered": delta.total_delivered,
        "dropped": delta.total_dropped,
        "duplicated": delta.duplicated,
        "sent_by_action": dict(delta.sent_by_action),
        "sup_msgs": sum(delta.received_by(s) + delta.sent_by(s)
                        for s in supervisors),
        "sup_requests": sum(delta.received_by(s, action) for s in supervisors
                            for action in msg.SUPERVISOR_REQUEST_ACTIONS),
        "flood_deliveries": tracer["flood_delivery"]
        - tracer_before.get("flood_delivery", 0),
        "antientropy_deliveries": tracer["publication_received"]
        - tracer_before.get("publication_received", 0),
        "received_publish_new": delta.received_by_action[msg.PUBLISH_NEW],
        "digest": _digest(state),
        "timed_span": timed_span,
    }
    report = getattr(state, "report", None)
    if report is not None:
        telemetry = report.telemetry or {}
        out["report_bytes"] = len(state.report_json)
        out["telemetry_samples"] = sum(
            int((telemetry.get(key) or {}).get("count", 0))
            for key in ("delivery_latency", "stabilization_rounds"))
        out["topics_moved"] = len(state.moved)
    if recorder:
        out["engine_tally"] = sim.profile_snapshot()
    return out


# ------------------------------------------------------- metric assembly
def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3,
            "max": max(values)}


def end_to_end_samples(repeats: List[Dict[str, object]],
                       yard: calibrate.Yardstick) -> Dict[str, List[float]]:
    """The per-repeat values behind each end-to-end metric.  Host times are
    in reference seconds: each repeat's CPU seconds, scaled by what the
    yardstick kernel took right before and after that repeat."""
    scale = [calibrate.REFERENCE_S / yard.around(i) for i in range(len(repeats))]
    timed = [r["timed_s"] * k for r, k in zip(repeats, scale)]
    return {
        "ops_per_s": [r["ops"] / t for r, t in zip(repeats, timed)],
        "events_per_s": [r["events"] / t for r, t in zip(repeats, timed)],
        "setup_s": [r["setup_s"] * k for r, k in zip(repeats, scale)],
        "msgs_per_op": [r["msgs"] / r["ops"] for r in repeats[:MIN_REPEATS]],
    }


def end_to_end_metrics(samples: Dict[str, List[float]], peak_rss_mb: float
                       ) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric is the median over the run's repeats (for
    the simulated ``msgs_per_op``: over the repeats every run makes)."""
    def median(name: str) -> float:
        return statistics.median(samples[name])

    return {
        "ops_per_s": _metric(median("ops_per_s"), "op/s"),
        "events_per_s": _metric(median("events_per_s"), "event/s"),
        "setup_s": _metric(median("setup_s"), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "msgs_per_op": _metric(median("msgs_per_op"), "messages/op"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(plain: Dict[str, object], spanned: Dict[str, object],
                      profiled: Dict[str, object],
                      recorder: spans_and_profile.SpanRecorder,
                      profiler: cProfile.Profile, problems: List[str]
                      ) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric of one workload, from three repeats of the
    same seed: untraced (``plain``), with spans, and under cProfile.  Counts
    come from ``plain``; the passes' digests were already required equal, so
    they are the same in all three."""
    m: Dict[str, Dict[str, object]] = {}
    ops, sent = plain["ops"], plain["sent_by_action"]

    # -- profile: self time and calls by layer -----------------------------
    layers, unattributed_s, profiled_s = spans_and_profile.layer_profile(profiler)
    for name in spans_and_profile.LAYERS:
        m[f"{name}.self_s"] = _metric(layers[name]["self_s"], "s")
        m[f"{name}.calls"] = _metric(layers[name]["calls"], "count")
    m["bench.unattributed_share"] = _metric(
        _ratio(unattributed_s, profiled_s), "ratio")
    attributed = sum(layer["self_s"] for layer in layers.values())
    if abs(attributed + unattributed_s - profiled_s) > 1e-6 * max(profiled_s, 1.0):
        problems.append(
            f"profile: layers {attributed:.6f}s + unattributed "
            f"{unattributed_s:.6f}s != profiled {profiled_s:.6f}s")

    # -- spans ---------------------------------------------------------------
    by_name = recorder.summary(spanned["timed_span"])
    empty = {"count": 0, "ok": 0, "total_s": 0.0, "self_s": 0.0}
    drain = by_name.get("sim.engine.drain", empty)
    check = by_name.get("analysis.convergence.check", empty)
    root_s = by_name["bench.timed"]["total_s"]
    self_sum = sum(entry["self_s"] for entry in by_name.values())
    if abs(self_sum - root_s) > 0.01 * root_s:
        problems.append(f"spans: self times sum to {self_sum:.6f}s, "
                        f"root span is {root_s:.6f}s")
    # Building happens in set-up, outside the timed root.
    build_s = sum(span["end"] - span["start"] for span in recorder.spans
                  if span["name"] == "api.builder.build")
    m["api.builder.build_s"] = _metric(build_s, "s")
    m["core.facade.membership_s"] = _metric(
        by_name.get("core.facade.membership", empty)["total_s"], "s")
    m["core.facade.drive_self_s"] = _metric(
        by_name.get("core.facade.drive", empty)["self_s"], "s")
    m["scenarios.runner.run_self_s"] = _metric(
        by_name.get("scenarios.runner.run", empty)["self_s"], "s")
    m["api.report.serialize_s"] = _metric(
        by_name.get("api.report.serialize", empty)["total_s"], "s")
    m["analysis.convergence.check_s"] = _metric(check["total_s"], "s")
    m["analysis.convergence.checks"] = _metric(check["count"], "count")
    m["analysis.convergence.useful_ratio"] = _metric(
        _ratio(check["ok"], check["count"]), "ratio")
    m["sim.engine.drain_s"] = _metric(drain["total_s"], "s")
    m["sim.engine.drains"] = _metric(drain["count"], "count")
    m["sim.engine.events"] = _metric(plain["events"], "count")
    m["sim.engine.events_per_s"] = _metric(
        _ratio(spanned["events"], drain["total_s"]), "event/s")
    tally = spanned["engine_tally"]
    if tally["steps"] != plain["events"]:
        problems.append(f"sim.engine.events: drains counted {tally['steps']} "
                        f"steps, steps_executed moved by {plain['events']}")
    if tally["drains"] != drain["count"]:
        problems.append(f"sim.engine.drains: engine counted {tally['drains']}, "
                        f"spans {drain['count']}")

    # -- counts from public surfaces (exact for a seed) ----------------------
    if sum(sent.values()) != plain["msgs"]:
        problems.append(f"messages: per-action sends sum to "
                        f"{sum(sent.values())}, total_sent moved by "
                        f"{plain['msgs']}")
    for metric, action in (
            ("core.supervisor.set_data_sent", msg.SET_DATA),
            ("core.subscriber.introduce_sent", msg.INTRODUCE),
            ("core.subscriber.linearize_sent", msg.LINEARIZE),
            ("core.subscriber.correct_label_sent", msg.CORRECT_LABEL),
            ("core.subscriber.remove_connections_sent", msg.REMOVE_CONNECTIONS),
            ("core.shortcuts.introduce_shortcut_sent", msg.INTRODUCE_SHORTCUT),
            ("pubsub.flooding.publish_new_sent", msg.PUBLISH_NEW),
            ("pubsub.antientropy.check_trie_sent", msg.CHECK_TRIE),
            ("pubsub.antientropy.check_and_publish_sent", msg.CHECK_AND_PUBLISH),
            ("pubsub.antientropy.publish_sent", msg.PUBLISH)):
        m[metric] = _metric(sent.get(action, 0), "count")
    m["core.supervisor.requests_received"] = _metric(plain["sup_requests"], "count")
    m["core.supervisor.msgs_per_op"] = _metric(plain["sup_msgs"] / ops,
                                               "messages/op")
    m["pubsub.flooding.useful_ratio"] = _metric(
        _ratio(plain["flood_deliveries"], plain["received_publish_new"]), "ratio")
    m["pubsub.antientropy.useful_ratio"] = _metric(
        _ratio(plain["antientropy_deliveries"], sent.get(msg.CHECK_TRIE, 0)),
        "ratio")
    m["sim.network.sent"] = _metric(plain["msgs"], "count")
    m["sim.network.delivered"] = _metric(plain["delivered"], "count")
    m["sim.network.dropped"] = _metric(plain["dropped"], "count")
    m["sim.network.duplicated"] = _metric(plain["duplicated"], "count")
    m["sim.network.delivered_ratio"] = _metric(
        _ratio(plain["delivered"], plain["msgs"] + plain["duplicated"]), "ratio")
    m["sim.node.timeouts"] = _metric(plain["timeouts"], "count")
    m["cluster.topics_moved"] = _metric(plain.get("topics_moved", 0), "count")
    m["telemetry.samples"] = _metric(plain.get("telemetry_samples", 0), "count")
    m["api.report.bytes"] = _metric(plain.get("report_bytes", 0), "bytes")

    # -- the harness itself --------------------------------------------------
    m["bench.sim_rounds"] = _metric(plain["sim_rounds"], "rounds")
    m["bench.failed_share"] = _metric(plain["failed"] / ops, "ratio")
    m["bench.trace_overhead_ratio"] = _metric(
        spanned["timed_s"] / plain["timed_s"], "ratio")
    m["bench.profile_overhead_ratio"] = _metric(
        profiled["timed_s"] / plain["timed_s"], "ratio")
    m["bench.import_s"] = _metric(IMPORT_S, "s")
    return m


# ---------------------------------------------------------------- one run
def run_workload(name: str, seed: int = DEFAULT_SEED, seconds: float = 15.0,
                 trace: bool = False, scale: float = 1.0,
                 max_rounds: Optional[int] = None) -> Dict[str, object]:
    """One run of one workload in this process.  Returns the full document;
    its ``result`` entry is the contract's JSON object."""
    wl = workloads.BY_NAME[name]
    size = wl.sizes(scale)
    doc: Dict[str, object] = {
        "workload": name, "op": wl.op, "seed": seed, "seconds": seconds,
        "scale": scale, "sizes": size, "trace": int(trace),
    }
    problems: List[str] = []
    if trace:
        repeats = _traced_passes(wl, seed, size, max_rounds, doc, problems)
    else:
        repeats = []
        peak_rss_mb = 0.0
        yard = calibrate.Yardstick()
        yard.sample()
        started = perf_counter()
        while True:
            began = perf_counter()
            repeats.append(measure_repeat(
                wl, sub_seed(seed, len(repeats)), size, max_rounds=max_rounds))
            yard.sample()
            if len(repeats) == 1:
                # Later repeats only inherit fragmentation.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = perf_counter()
            # Stop when one more repeat like the last would overrun.
            if (len(repeats) >= MIN_REPEATS
                    and now - started + (now - began) > seconds):
                break
        samples = end_to_end_samples(repeats, yard)
        doc["metrics"] = end_to_end_metrics(samples, peak_rss_mb)
        doc["samples"] = samples
        doc["quartiles"] = {metric: _quartiles(values)
                            for metric, values in samples.items()}
        doc["import_s"] = IMPORT_S
        doc["yardstick"] = {"reference_s": calibrate.REFERENCE_S,
                            "kernel_cpu_s": yard.cpu}
    attempted = sum(r["ops"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    if problems:
        failed = attempted
    doc["repeats"] = [{k: v for k, v in r.items()
                       if k not in ("engine_tally", "timed_span")}
                      for r in repeats]
    doc["sim_digest"] = hashlib.sha256(
        "".join(r["digest"] for r in repeats[:MIN_REPEATS]).encode("ascii")
    ).hexdigest()
    doc["problems"] = problems
    doc["failed_share"] = failed / attempted
    doc["result"] = {"correct": failed == 0, "attempted": attempted,
                     "failed": failed, "metrics": doc["metrics"]}
    return doc


def _traced_passes(wl, seed, size, max_rounds, doc, problems):
    """Three repeats of the first repeat's seed: untraced, with spans, under
    cProfile.  The simulated outcome must not notice either instrument."""
    first = sub_seed(seed, 0)
    plain = measure_repeat(wl, first, size, max_rounds=max_rounds)

    recorder = spans_and_profile.SpanRecorder(repeat=first)
    recorder.install()
    try:
        spanned = measure_repeat(wl, first, size, max_rounds=max_rounds,
                                 recorder=recorder)
    finally:
        recorder.uninstall()

    profiler = cProfile.Profile()
    profiled = measure_repeat(wl, first, size, max_rounds=max_rounds,
                              profiler=profiler)

    for label, other in (("spans", spanned), ("cProfile", profiled)):
        if other["digest"] != plain["digest"]:
            problems.append(f"sim_digest under {label} differs from the "
                            f"untraced repeat")
    doc["metrics"] = per_layer_metrics(plain, spanned, profiled, recorder,
                                       profiler, problems)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{wl.name}.json"
    origin = recorder.spans[0]["start"] if recorder.spans else 0.0
    metrics = doc["metrics"]
    profiled_s = sum(metrics[f"{layer}.self_s"]["value"]
                     for layer in spans_and_profile.LAYERS)
    trace_file.write_text(json.dumps({
        "workload": wl.name, "seed": first, "scale": doc["scale"],
        # profiled pass: seconds and share of the timed region per layer
        "layers": {layer: {
            "self_s": metrics[f"{layer}.self_s"]["value"],
            "share": _ratio(metrics[f"{layer}.self_s"]["value"], profiled_s),
            "calls": metrics[f"{layer}.calls"]["value"]}
            for layer in spans_and_profile.LAYERS},
        # span pass: seconds since the first span
        "spans": [dict(span, start=span["start"] - origin,
                       end=span["end"] - origin) for span in recorder.spans],
    }, indent=1))
    doc["trace_file"] = str(trace_file.relative_to(ROOT))
    return [plain, spanned, profiled]


# ------------------------------------------------------------ every workload
def run_all(seed: int, seconds: float, out: Optional[Path]) -> int:
    """Each workload in a fresh subprocess (so ``peak_rss_mb`` is honest),
    one after another, untraced then traced; prints every metric by name."""
    document: Dict[str, object] = {"seed": seed, "seconds": seconds,
                                   "scale": 1.0, "workloads": {}}
    OUT_DIR.mkdir(exist_ok=True)
    any_failed = False
    for wl in workloads.WORKLOADS:
        entry: Dict[str, object] = {}
        for trace in (0, 1):
            detail = OUT_DIR / f"run-{wl.name}-trace{trace}.json"
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", wl.name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--out", str(detail)],
                stdout=subprocess.DEVNULL, check=False)
            if done.returncode != 0:
                print(f"{wl.name}: run with --trace {trace} exited with "
                      f"{done.returncode}", file=sys.stderr)
                return 2
            entry["traced" if trace else "untraced"] = json.loads(
                detail.read_text())
        document["workloads"][wl.name] = entry
        for doc in entry.values():
            _print_metrics(doc)
            any_failed |= not doc["result"]["correct"]
    if out is not None:
        out.write_text(json.dumps(document, indent=1, sort_keys=True))
    return 1 if any_failed else 0


def _print_metrics(doc: Dict[str, object]) -> None:
    print(f"== {doc['workload']} (op: {doc['op']}; seed {doc['seed']}; "
          f"{'traced' if doc['trace'] else 'untraced'}; "
          f"{len(doc['repeats'])} repeats; sizes {doc['sizes']})")
    for name, metric in doc["metrics"].items():
        print(f"{doc['workload']:>20s}  {name:<44s} "
              f"{metric['value']:>16.6g} {metric['unit']}")
    print(f"{doc['workload']:>20s}  {'failed_share':<44s} "
          f"{doc['failed_share']:>16.6g} ratio")
    print(f"{doc['workload']:>20s}  sim_digest {doc['sim_digest']}")
    for problem in doc["problems"]:
        print(f"{doc['workload']:>20s}  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full document to this file")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every size (bench/test_bench.py only; "
                             "recorded, so never comparable with a full run)")
    args = parser.parse_args(argv)
    if args.workload is None:
        if args.scale != 1.0:
            parser.error("--scale needs --workload")
        return run_all(args.seed, args.seconds, args.out)
    doc = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.scale)
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    _print_metrics(doc)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
