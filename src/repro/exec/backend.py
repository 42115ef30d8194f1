"""Generic execution backends: run named tasks inline or across CPU cores.

A *task* is a :class:`TaskSpec`: a dotted reference to a task function
(``"package.module:function"``) plus a JSON-safe payload dict.  Task
functions live in :mod:`repro.exec.tasks` (or anywhere importable) and
return a JSON-safe dict.  Keeping tasks nameable and payloads serializable
is what lets the same task run in-process or in a fresh interpreter.

Two backends implement the same contract:

* :class:`InlineBackend` — run every task serially in this process;
* :class:`ProcessPoolBackend` — run up to ``jobs`` tasks concurrently,
  **each in its own fresh interpreter** (``python -m repro.exec.worker``).
  With per-task subprocess isolation no warm caches leak between tasks,
  and process-wide measurements (peak RSS) genuinely belong to one task.

Backend choice never changes results: both backends canonicalize every
result through a JSON round-trip (the artifact codec's
:func:`~repro.artifact.canonical_json`), so a result dict has the
same key order and value types whether it crossed a process boundary or
not.  ``backend.run`` returns results in *task submission order* regardless
of completion order; the optional progress callback streams completions as
they happen.

Fault tolerance
---------------
Long campaigns (sweeps, fuzz runs) cannot afford one pathological task
killing the whole batch.  Both backends therefore support a
``fault_tolerant`` mode in which a crashed, hung or garbage-emitting task
yields a structured :class:`TaskFailure` *result* (a dict under the
:data:`FAILURE_KEY` key, recognizable via :func:`is_failure_result`)
instead of raising through ``run``.  :class:`ProcessPoolBackend`
additionally enforces a per-task wall-clock ``timeout`` (the hung worker
is killed).  A failed task is not retried: task functions are
deterministic, so a rerun of a crash or of bad output reproduces it.  The
default (``fault_tolerant=False``, no timeout) preserves the historical
fail-fast contract.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence

from repro.artifact import Artifact, canonical_json

#: ``progress(task, result, done, total)`` — invoked once per finished task,
#: in completion order (== submission order on the inline backend).
ProgressFn = Callable[["TaskSpec", Dict[str, Any], int, int], None]


@dataclass(frozen=True)
class TaskSpec(Artifact):
    """One named unit of work: a task-function reference plus its payload."""

    task_id: str
    fn: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if ":" not in self.fn:
            raise ValueError(
                f"task fn must be 'package.module:function', got {self.fn!r}")


#: Key under which a :class:`TaskFailure` dict rides in a result slot when a
#: fault-tolerant backend absorbed the failure instead of raising.
FAILURE_KEY = "__task_failure__"

#: The failure kinds a backend can record.
FAILURE_KINDS = ("crash", "timeout", "bad-output")

#: How many trailing characters of a worker's stderr/traceback a
#: :class:`TaskFailure` keeps (enough to triage, bounded so campaign
#: artifacts stay small).
STDERR_TAIL_CHARS = 2000


@dataclass(frozen=True)
class TaskFailure(Artifact):
    """Structured record of one task that failed.

    ``kind`` is one of :data:`FAILURE_KINDS`: ``"crash"`` (nonzero exit or
    in-process exception), ``"timeout"`` (the worker exceeded the per-task
    wall-clock budget and was killed) or ``"bad-output"`` (the worker exited
    0 but printed something that is not a JSON object).
    """

    task_id: str
    fn: str
    kind: str
    exit_code: Optional[int] = None
    timeout_seconds: Optional[float] = None
    detail: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"failure kind must be one of {FAILURE_KINDS}, got {self.kind!r}")

    def as_result(self) -> Dict[str, Any]:
        """This failure in result-slot form (``{FAILURE_KEY: {...}}``)."""
        return {FAILURE_KEY: self.to_dict()}

    def raise_(self) -> NoReturn:
        """Re-raise this failure as the RuntimeError the fail-fast contract
        would have produced."""
        raise RuntimeError(
            f"task {self.task_id!r} ({self.fn}) failed [{self.kind}]:\n"
            f"{self.detail}".rstrip())


def is_failure_result(result: Optional[Dict[str, Any]]) -> bool:
    """True iff ``result`` is a failure record a fault-tolerant backend
    produced (see :data:`FAILURE_KEY`)."""
    return isinstance(result, dict) and FAILURE_KEY in result


def failure_from_result(result: Dict[str, Any]) -> TaskFailure:
    """The :class:`TaskFailure` inside a failure result slot."""
    return TaskFailure.from_dict(result[FAILURE_KEY])


def resolve_task_fn(ref: str) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """Import and return the task function named by ``"module:function"``."""
    module_name, _, fn_name = ref.partition(":")
    if not module_name or not fn_name:
        raise ValueError(
            f"task fn must be 'package.module:function', got {ref!r}")
    module = importlib.import_module(module_name)
    fn = getattr(module, fn_name, None)
    if not callable(fn):
        raise ValueError(f"{ref!r} does not name a callable task function")
    return fn


def canonicalize(result: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a task result exactly as a process boundary would: a
    canonical JSON round-trip.  Tuples become lists, dict keys become
    strings in sorted order — identical no matter which backend ran the
    task."""
    return json.loads(canonical_json(result))


def worker_env() -> Dict[str, str]:
    """Child-process environment with this tree's ``repro`` importable."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else \
        src_root + os.pathsep + existing
    return env


class ExecBackend:
    """Contract shared by all backends (see module docstring)."""

    def run(self, tasks: Sequence[TaskSpec],
            progress: Optional[ProgressFn] = None) -> List[Dict[str, Any]]:
        raise NotImplementedError


class InlineBackend(ExecBackend):
    """Run every task serially in this process (``--jobs 1``).

    ``fault_tolerant=True`` converts an exception raised by a task function
    into a :class:`TaskFailure` result slot (kind ``"crash"``, the traceback
    tail as detail), mirroring the process pool's contract.  Per-task
    timeouts cannot be enforced in-process; inline fault tolerance covers
    crashes only.
    """

    def __init__(self, fault_tolerant: bool = False) -> None:
        self.fault_tolerant = fault_tolerant

    def run_one(self, task: TaskSpec) -> Dict[str, Any]:
        """Run one task in-process; absorb a failure when fault-tolerant."""
        try:
            fn = resolve_task_fn(task.fn)
            return canonicalize(fn(dict(task.payload)))
        except Exception:
            if not self.fault_tolerant:
                raise
            tail = traceback.format_exc()[-STDERR_TAIL_CHARS:]
            return canonicalize(TaskFailure(
                task_id=task.task_id, fn=task.fn, kind="crash",
                detail=tail).as_result())

    def run(self, tasks: Sequence[TaskSpec],
            progress: Optional[ProgressFn] = None) -> List[Dict[str, Any]]:
        tasks = list(tasks)
        results: List[Dict[str, Any]] = []
        for index, task in enumerate(tasks):
            result = self.run_one(task)
            results.append(result)
            if progress is not None:
                progress(task, result, index + 1, len(tasks))
        return results


class ProcessPoolBackend(ExecBackend):
    """Run up to ``jobs`` tasks concurrently, each in a fresh interpreter.

    Concurrency is managed with a thread pool whose workers each drive one
    ``python -m repro.exec.worker`` subprocess to completion, so every task
    gets per-process isolation while the parent stays a single process.

    ``timeout`` (seconds, per task) kills a hung worker.  With
    ``fault_tolerant=True`` a crashed, hung or garbled task becomes a
    :class:`TaskFailure` result slot; otherwise it raises, preserving the
    historical fail-fast contract.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 fault_tolerant: bool = False) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout is not None and not timeout > 0:  # NaN too
            raise ValueError("timeout must be positive (or None)")
        self.jobs = jobs
        self.timeout = timeout
        self.fault_tolerant = fault_tolerant

    def _run_worker(self, task: TaskSpec) -> "Dict[str, Any] | TaskFailure":
        """One subprocess execution: the result dict, or a
        :class:`TaskFailure` describing what went wrong."""
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.exec.worker"],
                input=task.to_json(),
                capture_output=True, text=True, env=worker_env(),
                timeout=self.timeout)
        except subprocess.TimeoutExpired as exc:
            stderr = exc.stderr or b""
            if isinstance(stderr, bytes):
                stderr = stderr.decode("utf-8", "replace")
            return TaskFailure(
                task_id=task.task_id, fn=task.fn, kind="timeout",
                timeout_seconds=self.timeout,
                detail=(f"worker exceeded {self.timeout:g}s and was killed\n"
                        + stderr)[-STDERR_TAIL_CHARS:].rstrip())
        if proc.returncode != 0:
            return TaskFailure(
                task_id=task.task_id, fn=task.fn, kind="crash",
                exit_code=proc.returncode,
                detail=proc.stderr[-STDERR_TAIL_CHARS:].rstrip())
        try:
            result = json.loads(proc.stdout)
            if not isinstance(result, dict):
                raise ValueError("worker output is not a JSON object")
        except ValueError:
            return TaskFailure(
                task_id=task.task_id, fn=task.fn, kind="bad-output",
                exit_code=proc.returncode,
                detail=("worker exited 0 but emitted invalid JSON:\n"
                        + proc.stdout[-STDERR_TAIL_CHARS:]).rstrip())
        return result

    def run_one(self, task: TaskSpec) -> Dict[str, Any]:
        """Run one task to completion and return its result dict — or its
        failure slot when fault-tolerant."""
        outcome = self._run_worker(task)
        if not isinstance(outcome, TaskFailure):
            return outcome
        if not self.fault_tolerant:
            outcome.raise_()
        return canonicalize(outcome.as_result())

    def run(self, tasks: Sequence[TaskSpec],
            progress: Optional[ProgressFn] = None) -> List[Dict[str, Any]]:
        tasks = list(tasks)
        results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        done = 0
        pool = ThreadPoolExecutor(max_workers=self.jobs)
        try:
            futures = {pool.submit(self.run_one, task): index
                       for index, task in enumerate(tasks)}
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                done += 1
                if progress is not None:
                    progress(tasks[index], results[index], done, len(tasks))
        except BaseException:
            # Fail fast: drop every not-yet-started task instead of letting
            # the rest of the batch run to completion behind the error.
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        return results  # type: ignore[return-value]


def backend_for_jobs(jobs: int = 1, timeout: Optional[float] = None,
                     fault_tolerant: bool = False) -> ExecBackend:
    """The conventional mapping every ``--jobs N`` flag uses: 1 means inline
    (no subprocess overhead), anything larger means a process pool.  The
    hardening knobs forward to the chosen backend (``timeout`` applies only
    to the process pool — inline tasks cannot be interrupted)."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        return InlineBackend(fault_tolerant=fault_tolerant)
    return ProcessPoolBackend(jobs=jobs, timeout=timeout,
                              fault_tolerant=fault_tolerant)
