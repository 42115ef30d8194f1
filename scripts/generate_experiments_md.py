#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every experiment (E1–E13, A1–A3).

Usage::

    python scripts/generate_experiments_md.py [--jobs N] [--out EXPERIMENTS.md]

The commentary blocks describe what the paper claims and how the measured
numbers relate to it; the tables are produced by the experiment harness
(`repro.experiments`).  ``--jobs N`` fans the experiments out across the N
worker processes of a stdlib pool, opened per run, through
:func:`repro.exec.backend.run_tasks`; the written file
is byte-identical at any job count (experiments are seed-deterministic and
every report crosses the same canonical JSON boundary), so CI regenerates
the file in parallel and fails on any diff against the committed copy.
The script exits 1 when any experiment's checked claim fails.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List

from repro.api.report import format_table
from repro.cli import positive_int
from repro.experiments.runner import run_experiment_campaign

COMMENTARY = {
    "E1": (
        "**Paper claim (Definition 2, Lemma 3, Figure 1).** The skip ring has "
        "worst-case node degree `2(⌈log n⌉ − k + 1) = O(log n)`, constant average "
        "degree (≤ 4), and logarithmic diameter; the paper's edge-count derivation "
        "arrives at `4n − 4`.\n\n"
        "**Measured.** Worst-case and average degree bounds hold exactly. The paper's "
        "`4n − 4` counts two link endpoints per node and level (so it equals the "
        "*degree sum* bound); the actual undirected edge count is `2n − 3` for powers "
        "of two, and the measured degree sum stays below `4n − 4` as expected. "
        "Diameter stays within `⌈log n⌉ + 1`."
    ),
    "E2": (
        "**Paper claim (Theorem 5).** In a legitimate state the expected number of "
        "configuration requests sent to the supervisor per timeout interval is below 1.\n\n"
        "**Measured.** The measured request rate is a small constant independent of n, "
        "matching the expectation computed from the exact label-length counts "
        "(≈ 1.2–1.3). The paper's proof sums `Σ 1/(2k²) ≈ 0.82 < 1`, which counts "
        "`2^{k-1}` subscribers per label length; there are actually *two* subscribers "
        "with label length 1 (labels '0' and '1'), so the exact expectation is "
        "`1/2 + Σ 1/(2k²)` and slightly exceeds 1. The qualitative claim — constant "
        "expected supervisor maintenance load, independent of n — is confirmed."
    ),
    "E3": (
        "**Paper claim (Theorem 7, Section 4.1).** The supervisor sends only a constant "
        "number of messages per subscribe/unsubscribe (1 for a join, 2 for a leave), and "
        "a pre-existing subscriber is reconfigured for only two consecutive joins until "
        "the subscriber count doubles.\n\n"
        "**Measured.** Supervisor messages per operation stay ≤ 2 and do not grow with n; "
        "while doubling the system size, no pre-existing subscriber saw more than a "
        "handful of configuration changes (max ≤ 3, mean ≈ 1)."
    ),
    "E4": (
        "**Paper claim (Theorem 8).** From any weakly connected initial state — corrupted "
        "labels, corrupted supervisor database, partitioned components, garbage in-flight "
        "messages — the protocol converges to the legitimate supervised skip ring.\n\n"
        "**Setup.** The garbage in the channels is drawn from the protocol's own vocabulary: "
        "every action of both roles, read off the handler tables "
        "(`repro.core.messages.protocol_schema`), addressed to a subscriber or to the "
        "supervisor, with each key present or missing, an extra key, and values from one "
        "pool of forged and well-formed values (`workloads.initial_states.value_pool`).\n\n"
        "**Measured.** Every adversarial trial converged, within 30 rounds; the mean first "
        "legitimate check grows mildly with n, from 11.7 rounds at n = 8 to 18.3 at n = 32 "
        "(legitimacy is checked every 5 rounds)."
    ),
    "E5": (
        "**Paper claim (Theorem 13).** Closure: once the explicit edges form the skip "
        "ring, they are preserved forever (absent churn).\n\n"
        "**Measured.** Over the whole observation window the explicit edge set hashed to "
        "a single signature and the system stayed legitimate."
    ),
    "E6": (
        "**Paper claim (Theorems 17 and 23).** Publications stored at arbitrary "
        "subscribers eventually reach every subscriber via the Patricia-trie CheckTrie "
        "reconciliation, and once all tries agree no further publication traffic is "
        "generated.\n\n"
        "**Measured.** All scattered publications reached every subscriber within a few "
        "hundred rounds; the closure property is covered by the integration tests "
        "(no CheckAndPublish/Publish messages after convergence)."
    ),
    "E7": (
        "**Paper claim (Section 4.3, Section 1.2).** Flooding over ring + shortcut edges "
        "delivers a new publication within the skip ring's diameter, i.e. O(log n) hops, "
        "whereas related ring-based systems need O(n).\n\n"
        "**Measured.** Flood depth tracks ⌈log n⌉ and is far below the plain-ring depth "
        "(which grows linearly). On a live system every subscriber's first receipt of one "
        "flood is recorded (n − 1 `flood_delivery` events) and the last of them arrives "
        "within (flood depth from the publisher) × `max_delay` of the publish — what "
        "forwarding on first receipt implies. The hop count of a first arrival is reported, "
        "not bounded: under random non-FIFO delays the first copy need not have travelled "
        "a shortest path."
    ),
    "E8": (
        "**Paper claim (Section 1.3).** The supervised skip ring has better congestion "
        "than Chord and skip graphs because the supervisor's label assignment places "
        "nodes perfectly evenly on the ring; it also keeps a constant *average* degree.\n\n"
        "**Measured.** Placement balance (max/min gap) is ≤ 2 for the skip ring versus "
        "an order of magnitude larger for hash-placed Chord/skip-graph nodes; the skip "
        "ring's average degree is ≈ 3.9 versus Θ(log n) for both baselines. Shortest-path "
        "routing load imbalance is reported per overlay for the same sampled pairs."
    ),
    "E9": (
        "**Paper claim (Section 3.3).** Unannounced subscriber crashes are handled with a "
        "single failure detector at the supervisor: removing crashed entries from the "
        "database and re-running the repair actions restores a legitimate skip ring over "
        "the survivors.\n\n"
        "**Measured.** After crashing 10–25 % of the subscribers at once, the system "
        "reconverged to the legitimate topology of the survivors in every trial."
    ),
    "E10": (
        "**Paper claim (Introduction).** In the classic broker architecture the central "
        "server relays every publication to every subscriber, so its load grows with the "
        "publication rate; the supervised approach keeps the supervisor out of the "
        "dissemination path entirely.\n\n"
        "**Measured.** Broker messages grow linearly with the number of publications "
        "while the supervisor's message count depends only on membership operations and "
        "the constant-rate maintenance traffic."
    ),
    "E11": (
        "**Beyond the paper.** The single well-known supervisor handles every "
        "Subscribe/Unsubscribe/GetConfiguration of every topic — the paper's admitted "
        "scalability bottleneck. The cluster layer (`repro.cluster`) shards topics "
        "across K supervisors with bounded-loads consistent hashing; each topic's "
        "BuildSR instance runs against its owning shard unchanged.\n\n"
        "**Measured.** The same 8-topic workload is run against the single-supervisor "
        "facade and against the sharded facade for K = 1, 2, 4. K=1 reproduces the "
        "baseline load exactly (facade parity); K=4 cuts the hotspot supervisor's "
        "request load to roughly a quarter of the baseline (well under the 40% "
        "acceptance bound), scaling the control plane out linearly in K."
    ),
    "E12": (
        "**Beyond the paper.** The paper proves convergence from any initial state but "
        "assumes a channel that never loses or duplicates messages. The scenario engine "
        "(`repro.scenarios`) drops that assumption: a seeded link adversary injects "
        "probabilistic loss, duplication, delay spikes and named partitions with "
        "scheduled heals, while declarative scenario specs compose churn storms, crash "
        "waves, publication storms and supervisor failover into reproducible runs "
        "against either facade (`python -m repro scenario --list`).\n\n"
        "**Measured.** Under 10 % loss plus a partition that heals mid-phase, every "
        "publication that survived anywhere still reached every surviving subscriber "
        "(Theorem 17 under adversity) and the overlay re-legitimized after each "
        "disruption window (Theorem 8). Drops are accounted per reason "
        "(crashed-destination vs. adversary loss vs. partition), and scenario reports "
        "are byte-identical per seed **with telemetry enabled or not** — the "
        "observer does not perturb the run, so the library doubles as a "
        "deterministic regression oracle. The telemetry rerun "
        "(`telemetry=True` on the `SystemSpec`) additionally records every "
        "publication's send→delivery latency into a deterministic log-bucketed "
        "histogram; the p50/p90/p99/max digest lands in the report metadata and "
        "satisfies `p50 ≤ p90 ≤ p99 ≤ max` by construction."
    ),
    "E13": (
        "**Beyond the paper.** All of the paper's claims are statements over "
        "*families* of runs — node counts, adversary intensities, seeds. The "
        "parallel execution layer (`repro.exec`) turns such families into "
        "first-class objects: a declarative `SweepSpec` grid over a base "
        "`SystemSpec`, expanded into tasks with deterministically derived "
        "per-task seeds and fanned out across CPU cores (`python -m repro sweep --jobs N`), "
        "merged into one byte-reproducible campaign artifact.\n\n"
        "**Measured.** A loss-rate × shard-count grid of disruption windows: "
        "every grid point re-legitimizes and delivers all surviving publications "
        "(Theorems 8/17 hold across the whole family, for the single supervisor "
        "and the K=4 cluster alike, with and without 10 % loss); derived task "
        "seeds are distinct and stable across re-expansion; the campaign "
        "artifact survives a lossless JSON round-trip and is byte-identical at "
        "`--jobs 1` vs `--jobs N`. The sweep's base spec sets `telemetry=True`, "
        "so every worker records delivery latency and the merged campaign "
        "artifact carries cluster-wide p50/p90/p99 percentiles whose total "
        "count is the exact sum over tasks (integer bucket merges are "
        "order-invariant, so the merged block too is byte-identical at any "
        "job count); render them with `python -m repro metrics campaign.json`."
    ),
    "A1": (
        "**Design question.** Section 3.2.1's prose integrates an unknown subscriber that "
        "requests its configuration; Algorithm 3 instead replies `⊥` and lets the "
        "subscriber re-subscribe. At two seeds both variants converge and neither is "
        "shown faster; a speed comparison needs more seeds and sizes (ROADMAP item "
        "8(c)). Integration is the library default "
        "(`ProtocolParams.integrate_unknown_requesters`)."
    ),
    "A2": (
        "**Design question.** Action (iv) (a subscriber that believes it is minimal asks "
        "for its configuration with probability 1/2) is only needed for convergence "
        "*speed*. Measured: with the action disabled, convergence from unrecorded "
        "states relies on the low-probability action (ii) and takes noticeably longer."
    ),
    "A3": (
        "**Design question.** Flooding (Section 4.3) is an optimisation layered on top of "
        "the self-stabilizing anti-entropy. Measured: flooding delivers fresh "
        "publications essentially within the topology diameter, while anti-entropy alone "
        "needs more rounds (random pairwise exchanges along ring edges) but still "
        "converges — matching the paper's statement that correctness never depends on "
        "flooding."
    ),
}

HEADER = """# EXPERIMENTS — paper claims vs. measured results

This file is generated by `python scripts/generate_experiments_md.py` (add
`--jobs N` to fan the experiments across N worker processes via `repro.exec`
— the output is byte-identical at any job count, which CI verifies by
regenerating this file and failing on diff); the script exits 1 when any
checked claim fails.  The paper (IPDPS 2018 /
arXiv:1710.08128) is a theory paper without measured tables, so each
experiment reproduces a stated definition, lemma, theorem, figure or
comparison claim (this file is the experiment index).  "Claims" listed
under each table are checked programmatically on every run; no wall-clock
value enters this file.

Every measured table below is byte-identical across the engine's performance
work: PR 10's vectorized delivery core and columnar node-state arena, and
PR 19's deletion of that arena, the batched RNG drawers and the wheel retune,
changed per-event *cost* only, never event order or report bytes — the
goldens in `tests/golden/`, the corpus replays in `tests/corpus/`, and the
wheel-vs-`heapq` ordering tests (`tests/test_batched_core.py`,
`tests/test_engine_scale.py`) pin that equivalence at up to 100k nodes.

**A departure from list linearization.** A subscriber that does not keep a
reference it is handed delegates it towards its position (`Linearize`).  List
linearization (Onus, Richa and Scheideler, ALENEX 2007) moves it one sorted-list
position per hop; here it goes to the stored reference whose label lies nearest
it without overshooting, the list neighbour or a shortcut, as skip graphs route
(Aspnes and Shah, SODA 2003).  The algorithm text is not at hand to check this
against, so it is labelled a departure.  In a legitimate ring a walk takes at
most 2⌈log n⌉ hops instead of up to n − 2 (`tests/test_properties.py`), and in
the 100 rounds after the first legitimate check of a clean ring of 256 or 512
subscribers 0–0.53 `Linearize` go out per round instead of 27.5–45.1.  The
change moved E2's n = 256 row, E3, E4, E7's parameters, E9, E11, E12, E13, A1,
A2 and A3; every checked claim still holds.

"""


def generate(out_path: str = "EXPERIMENTS.md", jobs: int = 1) -> List[str]:
    """Write the file and return the keys of the experiments whose checked
    claims do not all hold."""
    def progress(key, report, done, total):
        print(f"[{done}/{total}] {key}: done ({report.wall_seconds} s), "
              f"claims hold: {report.passed}")

    results = run_experiment_campaign(jobs=jobs, progress=progress)
    parts = [HEADER]
    for key, result in results.items():
        parts.append(f"## {result.name} — {result.title}\n")
        parts.append(COMMENTARY.get(key, "") + "\n")
        parts.append(format_table(result.headers, result.rows) + "\n")
        parts.append("Checked claims:\n")
        for description, holds in result.claims.items():
            parts.append(f"- [{'x' if holds else ' '}] {description}")
        parts.append(f"\n*Parameters:* `{result.metadata}`\n")
    Path(out_path).write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {out_path}")
    return [key for key, result in results.items() if not result.passed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="EXPERIMENTS.md",
                        help="output path (default EXPERIMENTS.md)")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (default 1 = inline; the "
                             "written file is byte-identical at any value)")
    args = parser.parse_args(argv)
    failed = generate(args.out, jobs=args.jobs)
    if failed:
        print(f"claims failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
