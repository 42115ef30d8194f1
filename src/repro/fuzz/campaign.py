"""The coverage-guided fuzz campaign: generate → run → observe → shrink.

One :class:`FuzzCampaign` executes the loop the issue calls "a machine that
imagines scenarios":

1. draw a batch of specs — fresh from the generator, or mutants of pool
   specs that previously discovered new coverage;
2. fan the batch out through the **fault-tolerant** exec layer (per-task
   timeouts, crashed-worker detection — one pathological spec can kill
   its worker, never the campaign);
3. merge results *in submission order*: update the coverage map, admit
   coverage-discovering specs to the mutation pool, record oracle failures
   and worker failures as findings (deduplicated by signature);
4. when the budget is spent (or enough findings accumulated), delta-debug
   every finding down to a minimal spec that still fails the same way.

Byte-reproducibility: generation draws from one ``derive_rng`` stream whose
consumption depends only on the seed and the (deterministic) results of
previous batches; batches are a fixed size regardless of ``--jobs``;
results are merged in submission order; nothing wall-clock ever enters the
report, which the artifact codec (:mod:`repro.artifact`) writes.  Same
seed + same iteration budget ⇒ identical findings, identical coverage
trail, identical artifact bytes at any job count.  (A wall-clock
budget — ``budget_seconds`` — necessarily trades this away; it exists for
CI smoke jobs and is recorded as ``truncated`` in the report.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.artifact import Artifact
from repro.exec.backend import (
    ExecBackend,
    TaskSpec,
    backend_for_jobs,
    failure_from_result,
    is_failure_result,
)
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.generator import GeneratorLimits, SpecGenerator, generated_name
from repro.fuzz.oracle import OracleSpec, Verdict
from repro.fuzz.shrink import Shrinker
from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import derive_rng

#: Dotted reference of the task function every fuzz iteration runs.
FUZZ_TASK_FN = "repro.fuzz.tasks:run_fuzz_case"

#: ``progress(iteration, total, spec_name, status, detail)`` — status is
#: ``"ok"``, ``"new-coverage"``, ``"finding"`` or ``"worker-failure"``.
FuzzProgressFn = Callable[[int, int, str, str, str], None]

#: Probability that a draw mutates a pool spec instead of generating afresh.
MUTATE_PROBABILITY = 0.6

#: Size of the mutation pool; older coverage discoveries rotate out FIFO.
POOL_CAP = 64


@dataclass(frozen=True)
class FuzzConfig(Artifact):
    """Everything that determines a campaign's results (and nothing that
    doesn't), embedded verbatim in the report."""

    seed: int = 0
    budget_iters: int = 64
    batch_size: int = 8
    max_findings: int = 8
    shrink_budget: int = 120
    limits: GeneratorLimits = field(default_factory=GeneratorLimits)
    oracle: OracleSpec = field(default_factory=OracleSpec)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.budget_iters < 1:
            raise ValueError("budget_iters must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_findings < 1:
            raise ValueError("max_findings must be >= 1")


@dataclass
class FuzzFinding(Artifact):
    """One deduplicated failure: the spec that first hit it, every later
    occurrence counted, and the shrunk minimal reproduction."""

    finding_id: str
    signature: Tuple[str, ...]
    kind: str                      # "oracle" | "worker"
    iteration: int                 # 0-based iteration of first occurrence
    spec: Dict[str, Any]           # original (unshrunk) failing spec
    seed: int                      # per-case run seed
    reasons: Tuple[str, ...] = ()
    worker_failure: Optional[Dict[str, Any]] = None
    occurrences: int = 1
    shrunk_spec: Optional[Dict[str, Any]] = None
    shrink_evals: int = 0
    shrink_steps: int = 0
    shrink_budget_exhausted: bool = False

    def corpus_artifact(self, fuzz_seed: int) -> Dict[str, Any]:
        """The standalone JSON artifact a triager commits into
        ``tests/corpus/`` once the underlying bug is fixed (see FUZZING.md).
        ``spec``/``seed`` are exactly what the corpus replay
        collector feeds back through the scenario runner."""
        return {
            "schema": 1,
            "spec": self.shrunk_spec if self.shrunk_spec is not None
            else dict(self.spec),
            "seed": self.seed,
            "source": {
                "tool": "repro-fuzz",
                "fuzz_seed": fuzz_seed,
                "iteration": self.iteration,
                "signature": list(self.signature),
                "reasons": list(self.reasons),
                "original_spec": dict(self.spec),
            },
        }


@dataclass
class FuzzReport(Artifact, derived=("passed",)):
    """The campaign artifact: canonical JSON, wall-clock free."""

    config: FuzzConfig
    iterations: int = 0
    truncated: bool = False
    coverage: CoverageMap = field(default_factory=CoverageMap)
    trail: List[Dict[str, Any]] = field(default_factory=list)
    findings: List[FuzzFinding] = field(default_factory=list)
    pool_size: int = 0
    schema: int = 1

    @property
    def passed(self) -> bool:
        return not self.findings


class FuzzCampaign:
    """Drive one coverage-guided fuzz campaign through an exec backend."""

    def __init__(self, config: FuzzConfig, jobs: int = 1,
                 backend: Optional[ExecBackend] = None,
                 task_timeout: Optional[float] = 300.0,
                 budget_seconds: Optional[float] = None) -> None:
        self.config = config
        # Fault tolerance is not optional for a fuzzer: the whole point is
        # feeding the system inputs that might wedge it.
        self.backend = backend if backend is not None else backend_for_jobs(
            jobs, timeout=task_timeout, fault_tolerant=True)
        self.budget_seconds = budget_seconds
        self.generator = SpecGenerator(config.limits)

    # -------------------------------------------------------------- case seeds
    def case_seed(self, iteration: int) -> int:
        """The run seed of iteration ``i`` — derived, stable, independent of
        batching and job count."""
        return derive_rng(self.config.seed, "fuzz", "case",
                          iteration).getrandbits(32)

    def _task(self, spec: ScenarioSpec, iteration: int) -> TaskSpec:
        return TaskSpec(
            task_id=spec.name, fn=FUZZ_TASK_FN,
            payload={"spec": spec.to_dict(),
                     "seed": self.case_seed(iteration),
                     "oracle": self.config.oracle.to_dict()})

    # -------------------------------------------------------------------- run
    def run(self, progress: Optional[FuzzProgressFn] = None) -> FuzzReport:
        cfg = self.config
        rng = derive_rng(cfg.seed, "fuzz", "gen")
        coverage = CoverageMap()
        pool: List[Dict[str, Any]] = []
        findings: Dict[Tuple[str, ...], FuzzFinding] = {}
        trail: List[Dict[str, Any]] = []
        report = FuzzReport(config=cfg, coverage=coverage, trail=trail)

        deadline = None
        if self.budget_seconds is not None:
            deadline = time.monotonic() + self.budget_seconds

        iteration = 0
        while iteration < cfg.budget_iters:
            if deadline is not None and time.monotonic() > deadline:
                report.truncated = True
                break
            batch: List[ScenarioSpec] = []
            for offset in range(min(cfg.batch_size,
                                    cfg.budget_iters - iteration)):
                name = generated_name(cfg.seed, iteration + offset)
                if pool and rng.random() < MUTATE_PROBABILITY:
                    base = ScenarioSpec.from_dict(rng.choice(pool))
                    batch.append(self.generator.mutate(rng, base, name))
                else:
                    batch.append(self.generator.random_spec(rng, name))
            tasks = [self._task(spec, iteration + offset)
                     for offset, spec in enumerate(batch)]
            results = self.backend.run(tasks)

            for offset, (spec, result) in enumerate(zip(batch, results)):
                index = iteration + offset
                self._observe(index, spec, result, coverage, pool, findings,
                              trail, progress)
            iteration += len(batch)
            if len(findings) >= cfg.max_findings:
                break

        report.iterations = iteration
        report.pool_size = len(pool)
        report.findings = sorted(findings.values(),
                                 key=lambda f: f.iteration)
        for number, finding in enumerate(report.findings):
            finding.finding_id = f"fuzz-s{cfg.seed}-f{number:03d}"
            self._shrink(finding)
        return report

    # ------------------------------------------------------------ observation
    def _observe(self, index: int, spec: ScenarioSpec,
                 result: Dict[str, Any], coverage: CoverageMap,
                 pool: List[Dict[str, Any]],
                 findings: Dict[Tuple[str, ...], FuzzFinding],
                 trail: List[Dict[str, Any]],
                 progress: Optional[FuzzProgressFn]) -> None:
        cfg = self.config
        total = cfg.budget_iters
        if is_failure_result(result):
            failure = failure_from_result(result).to_dict()
            signature = (f"worker:{failure['kind']}",)
            if signature in findings:
                findings[signature].occurrences += 1
            else:
                findings[signature] = FuzzFinding(
                    finding_id="", signature=signature, kind="worker",
                    iteration=index, spec=spec.to_dict(),
                    seed=self.case_seed(index),
                    worker_failure=failure)
            if progress is not None:
                progress(index + 1, total, spec.name, "worker-failure",
                         failure["kind"])
            return

        new_keys = coverage.add(result["coverage"])
        if new_keys:
            trail.append({"iteration": index, "new_keys": new_keys})
            pool.append(spec.to_dict())
            if len(pool) > POOL_CAP:
                # FIFO eviction: old discoveries rotate out deterministically.
                del pool[0]

        verdict = Verdict.from_dict(result["verdict"])
        if verdict.failed:
            if verdict.signature in findings:
                findings[verdict.signature].occurrences += 1
            else:
                findings[verdict.signature] = FuzzFinding(
                    finding_id="", signature=verdict.signature, kind="oracle",
                    iteration=index, spec=spec.to_dict(),
                    seed=self.case_seed(index), reasons=verdict.reasons)
            status = "finding"
            detail = "; ".join(verdict.signature)
        else:
            status = "new-coverage" if new_keys else "ok"
            detail = f"+{len(new_keys)} keys" if new_keys else ""
        if progress is not None:
            progress(index + 1, total, spec.name, status, detail)

    # -------------------------------------------------------------- shrinking
    def _still_fails_fn(self, finding: FuzzFinding
                        ) -> Callable[[ScenarioSpec], bool]:
        """The signature-preserving check the shrinker re-runs candidates
        through: same case seed, same oracle, same exec-layer hardening."""
        cfg = self.config

        def still_fails(candidate: ScenarioSpec) -> bool:
            task = TaskSpec(
                task_id=f"shrink-{candidate.name}", fn=FUZZ_TASK_FN,
                payload={"spec": candidate.to_dict(), "seed": finding.seed,
                         "oracle": cfg.oracle.to_dict()})
            result = self.backend.run([task])[0]
            if is_failure_result(result):  # only a worker finding has a worker: signature
                kind = failure_from_result(result).kind
                return (f"worker:{kind}",) == finding.signature
            if finding.kind == "worker":
                return False
            verdict = Verdict.from_dict(result["verdict"])
            return verdict.failed and verdict.signature == finding.signature

        return still_fails

    def _shrink(self, finding: FuzzFinding) -> None:
        shrinker = Shrinker(self._still_fails_fn(finding),
                            budget=self.config.shrink_budget)
        outcome = shrinker.shrink(ScenarioSpec.from_dict(finding.spec))
        finding.shrunk_spec = outcome.spec.to_dict()
        finding.shrink_evals = outcome.evals
        finding.shrink_steps = outcome.accepted_steps
        finding.shrink_budget_exhausted = outcome.budget_exhausted

