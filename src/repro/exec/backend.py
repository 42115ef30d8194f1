"""The execution backend: run named tasks inline or across CPU cores.

A *task* is a :class:`TaskSpec`: a dotted reference to a task function
(``"package.module:function"``) plus a JSON-safe payload dict.  Task
functions live in :mod:`repro.exec.tasks` (or anywhere importable) and
return a JSON-safe dict.  Keeping tasks nameable and payloads picklable
is what lets the same task run in this process or in a worker process.

One per-task function, :func:`run_task`, does the work everywhere:
resolve the task, call it, canonicalize the result.  :func:`run_tasks`
calls it in a loop when there is one worker's worth of work, and
otherwise submits it to the worker processes of a stdlib
:class:`~concurrent.futures.ProcessPoolExecutor`, opened per run and shut
down before ``run_tasks`` returns.

The job count never changes results: every result goes through a canonical
JSON round-trip (the artifact codec's :func:`~repro.artifact.canonical_json`),
so a result dict has the same key order and value types in either path.
``run_tasks`` returns results in *task submission order* regardless of
completion order; the optional progress callback streams completions as
they happen.

Fault tolerance
---------------
Long campaigns (sweeps, fuzz runs) cannot afford one pathological task
killing the whole batch.  With ``fault_tolerant=True`` a task that raises
yields a structured :class:`TaskFailure` *result* (a dict under the
:data:`FAILURE_KEY` key, recognizable via :func:`is_failure_result`)
instead of raising through ``run_tasks``.  A failed task is not retried:
task functions are deterministic, so a rerun reproduces the crash.  The
default (``fault_tolerant=False``) is fail-fast: the task's own exception
propagates at any job count.  A worker process killed from outside breaks
the pool, and that error propagates in either mode.
"""

from __future__ import annotations

import importlib
import json
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.artifact import Artifact, canonical_json

#: ``progress(task, result, done, total)`` — invoked once per finished task,
#: in completion order (== submission order when run inline).
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


#: Key under which a :class:`TaskFailure` dict rides in a result slot when
#: ``fault_tolerant`` absorbed the failure instead of raising.
FAILURE_KEY = "__task_failure__"

#: How many trailing characters of a task's traceback a :class:`TaskFailure`
#: keeps (enough to triage, bounded so campaign artifacts stay small).
TRACEBACK_TAIL_CHARS = 2000


@dataclass(frozen=True)
class TaskFailure(Artifact):
    """Structured record of one task that raised: ``kind`` is ``"crash"``
    and ``detail`` the tail of the traceback."""

    task_id: str
    fn: str
    kind: str
    detail: str = ""

    def as_result(self) -> Dict[str, Any]:
        """This failure in result-slot form (``{FAILURE_KEY: {...}}``)."""
        return {FAILURE_KEY: self.to_dict()}


def is_failure_result(result: Optional[Dict[str, Any]]) -> bool:
    """True iff ``result`` is a failure record ``fault_tolerant`` produced
    (see :data:`FAILURE_KEY`)."""
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
    """Normalize a task result through a canonical JSON round-trip.  Tuples
    become lists, dict keys become strings in sorted order — identical no
    matter where the task ran."""
    return json.loads(canonical_json(result))


def run_task(task: TaskSpec, fault_tolerant: bool) -> Dict[str, Any]:
    """Run one task in this process and return its canonical result — or,
    when ``fault_tolerant``, its ``crash`` record if it raised."""
    try:
        fn = resolve_task_fn(task.fn)
        return canonicalize(fn(dict(task.payload)))
    except Exception:
        if not fault_tolerant:
            raise
        tail = traceback.format_exc()[-TRACEBACK_TAIL_CHARS:]
        return canonicalize(TaskFailure(
            task_id=task.task_id, fn=task.fn, kind="crash",
            detail=tail).as_result())


def run_tasks(tasks: Sequence[TaskSpec], jobs: int = 1,
              fault_tolerant: bool = False,
              progress: Optional[ProgressFn] = None) -> List[Dict[str, Any]]:
    """Run ``tasks`` on up to ``jobs`` worker processes; results in
    submission order.  One worker's worth of work runs inline, with no
    fork; more opens a process pool for this call only, so no pool thread
    outlives it.  On a task's exception (fail-fast) the not-yet-started
    tasks are cancelled and the exception is re-raised."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results: List[Dict[str, Any]] = []
        for done, task in enumerate(tasks, 1):
            results.append(run_task(task, fault_tolerant))
            if progress is not None:
                progress(task, results[-1], done, len(tasks))
        return results
    # Imported here: multiprocessing would add about 1.2 MiB to the RSS of
    # every process that imports repro, and only a pooled run needs it.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    slots: List[Dict[str, Any]] = [{}] * len(tasks)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(run_task, task, fault_tolerant): index
                   for index, task in enumerate(tasks)}
        for done, future in enumerate(as_completed(futures), 1):
            index = futures[future]
            slots[index] = future.result()
            if progress is not None:
                progress(tasks[index], slots[index], done, len(tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return slots
