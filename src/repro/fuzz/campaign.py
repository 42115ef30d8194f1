"""The fuzz campaign: generate → run → observe → shrink.

One :class:`FuzzCampaign` executes the loop the issue calls "a machine that
imagines scenarios":

1. draw the budget's fresh specs from the generator, once;
2. run them as one stream through the **fault-tolerant** task runner,
   inline or on the worker processes of a stdlib pool opened for the run
   (a spec whose run raises becomes a ``crash`` record, never an aborted
   campaign);
3. merge results *in submission order*: update the coverage map (the
   report's measure of exploration), record oracle failures and worker
   failures as findings (deduplicated by signature), and stop at the
   first result that brings the findings to ``max_findings`` — closing
   the stream cancels the specs not yet started;
4. when the budget is spent (or enough findings accumulated), delta-debug
   every finding down to a minimal spec that still fails the same way.

Byte-reproducibility: generation draws from one ``derive_rng`` stream in
iteration order, which no result feeds back into; results are merged in
submission order and the stop point is a result's index; nothing
wall-clock ever enters the report, which the artifact codec
(:mod:`repro.artifact`) writes.  Same seed + same iteration budget ⇒
identical findings, identical coverage trail, identical artifact bytes at
any job count.  (A wall-clock budget — ``budget_seconds`` — necessarily
trades this away; it exists for CI smoke jobs and is recorded as
``truncated`` in the report.)
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.artifact import Artifact
from repro.exec.backend import (
    TaskSpec,
    failure_from_result,
    is_failure_result,
    run_task,
    run_tasks,
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
#: ``"ok"``, ``"finding"`` or ``"worker-failure"``.
FuzzProgressFn = Callable[[int, int, str, str, str], None]


@dataclass(frozen=True)
class FuzzConfig(Artifact):
    """Everything that determines a campaign's results (and nothing that
    doesn't), embedded verbatim in the report."""

    seed: int = 0
    budget_iters: int = 64
    max_findings: int = 8
    shrink_budget: int = 120
    limits: GeneratorLimits = field(default_factory=GeneratorLimits)
    oracle: OracleSpec = field(default_factory=OracleSpec)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.budget_iters < 1:
            raise ValueError("budget_iters must be >= 1")
        if self.max_findings < 1:
            raise ValueError("max_findings must be >= 1")
        if self.shrink_budget < 1:
            raise ValueError("shrink_budget must be >= 1")


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
    schema: int = 1

    @property
    def passed(self) -> bool:
        return not self.findings


class FuzzCampaign:
    """Drive one fuzz campaign through the task runner.  Every run is
    fault-tolerant: the whole point is feeding the system inputs that might
    break it."""

    def __init__(self, config: FuzzConfig, jobs: int = 1,
                 budget_seconds: Optional[float] = None) -> None:
        self.config = config
        self.jobs = jobs
        self.budget_seconds = budget_seconds
        self.generator = SpecGenerator(config.limits)

    # -------------------------------------------------------------- case seeds
    def case_seed(self, iteration: int) -> int:
        """The run seed of iteration ``i`` — derived, stable, independent of
        the job count."""
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
        findings: Dict[Tuple[str, ...], FuzzFinding] = {}
        trail: List[Dict[str, Any]] = []
        report = FuzzReport(config=cfg, coverage=coverage, trail=trail)

        deadline = None
        if self.budget_seconds is not None:
            deadline = time.monotonic() + self.budget_seconds

        specs = [self.generator.random_spec(rng, generated_name(cfg.seed, index))
                 for index in range(cfg.budget_iters)]
        tasks = [self._task(spec, index) for index, spec in enumerate(specs)]
        iteration = 0
        with closing(run_tasks(tasks, jobs=self.jobs, fault_tolerant=True)) as results:
            for spec in specs:
                if deadline is not None and time.monotonic() > deadline:
                    report.truncated = True
                    break
                self._observe(iteration, spec, next(results), coverage,
                              findings, trail, progress)
                iteration += 1
                if len(findings) >= cfg.max_findings:
                    break

        report.iterations = iteration
        report.findings = list(findings.values())  # first occurrences, in order
        for number, finding in enumerate(report.findings):
            finding.finding_id = f"fuzz-s{cfg.seed}-f{number:03d}"
            self._shrink(finding)
        return report

    # ------------------------------------------------------------ observation
    def _observe(self, index: int, spec: ScenarioSpec,
                 result: Dict[str, Any], coverage: CoverageMap,
                 findings: Dict[Tuple[str, ...], FuzzFinding],
                 trail: List[Dict[str, Any]],
                 progress: Optional[FuzzProgressFn]) -> None:
        failure: Optional[Dict[str, Any]] = None
        if is_failure_result(result):
            failure = failure_from_result(result).to_dict()
            kind, signature, reasons = "worker", (f"worker:{failure['kind']}",), ()
            status, detail = "worker-failure", failure["kind"]
        else:
            new_keys = coverage.add(result["coverage"])
            if new_keys:
                trail.append({"iteration": index, "new_keys": new_keys})
            verdict = Verdict.from_dict(result["verdict"])
            kind, signature, reasons = "oracle", verdict.signature, verdict.reasons
            status, detail = (("finding", "; ".join(signature)) if verdict.failed
                              else ("ok", ""))
        if status != "ok":
            if signature in findings:
                findings[signature].occurrences += 1
            else:
                findings[signature] = FuzzFinding(
                    finding_id="", signature=signature, kind=kind, iteration=index,
                    spec=spec.to_dict(), seed=self.case_seed(index),
                    reasons=reasons, worker_failure=failure)
        if progress is not None:
            progress(index + 1, self.config.budget_iters, spec.name, status, detail)

    # -------------------------------------------------------------- shrinking
    def _still_fails_fn(self, finding: FuzzFinding
                        ) -> Callable[[ScenarioSpec], bool]:
        """The signature-preserving check the shrinker re-runs candidates
        through: same case seed, same oracle, run inline and fault-tolerant."""
        cfg = self.config

        def still_fails(candidate: ScenarioSpec) -> bool:
            task = TaskSpec(
                task_id=f"shrink-{candidate.name}", fn=FUZZ_TASK_FN,
                payload={"spec": candidate.to_dict(), "seed": finding.seed,
                         "oracle": cfg.oracle.to_dict()})
            result = run_task(task, fault_tolerant=True)
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

