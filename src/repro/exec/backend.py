"""The task runner: run named tasks inline or across CPU cores.

A *task* is a :class:`TaskSpec`: a dotted reference to a task function
(``"package.module:function"``) plus a JSON-safe payload dict.  Task
functions live in :mod:`repro.exec.tasks` (or anywhere importable) and
return a JSON-safe dict.  Keeping tasks nameable and payloads picklable
is what lets the same task run in this process or in a worker process.

One per-task function, :func:`run_task`, does the work everywhere:
resolve the task, call it, canonicalize the result.  :func:`run_tasks`
returns an iterator of its results in *task submission order*: a lazy
loop when there is one worker's worth of work, and otherwise one
``map`` over the worker processes of a stdlib
:class:`~concurrent.futures.ProcessPoolExecutor`, opened when the stream
starts and shut down when it is used up, closed or raises.

The job count never changes results: every result goes through a canonical
JSON round-trip (the artifact codec's :func:`~repro.artifact.canonical_json`),
so a result dict has the same key order and value types in either path.

Fault tolerance
---------------
Long campaigns (sweeps, fuzz runs) cannot afford one pathological task
killing the whole batch.  With ``fault_tolerant=True`` a task that raises
yields a structured :class:`TaskFailure` *result* (a dict under the
:data:`FAILURE_KEY` key, recognizable via :func:`is_failure_result`)
instead of raising through ``run_tasks``.  A failed task is not retried:
task functions are deterministic, so a rerun reproduces the crash.  The
default (``fault_tolerant=False``) is fail-fast: the exception of the
first failing task in submission order propagates, at any job count.  A
worker process killed from outside breaks the pool, and that error
propagates in either mode.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from repro.artifact import Artifact, canonical_json


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

#: How many trailing characters of a task's crash detail a :class:`TaskFailure`
#: keeps (enough to triage, bounded so campaign artifacts stay small).
TRACEBACK_TAIL_CHARS = 2000


@dataclass(frozen=True)
class TaskFailure(Artifact):
    """Structured record of one task that raised: ``kind`` is ``"crash"``
    and ``detail`` the tail of its path-free traceback: one
    ``file:function`` line per frame, then the exception line."""

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
    except Exception as error:
        if not fault_tolerant:
            raise
        # One file:function line per frame, file by base name, then the
        # exception line: the same text from any checkout, host or job count.
        frames = [f"{os.path.basename(frame.filename)}:{frame.name}\n"
                  for frame in traceback.extract_tb(error.__traceback__)]
        detail = "".join(frames + traceback.format_exception_only(type(error), error))
        return canonicalize(TaskFailure(
            task_id=task.task_id, fn=task.fn, kind="crash",
            detail=detail[-TRACEBACK_TAIL_CHARS:]).as_result())


def run_tasks(tasks: Sequence[TaskSpec], jobs: int = 1,
              fault_tolerant: bool = False) -> Iterator[Dict[str, Any]]:
    """Run ``tasks`` on up to ``jobs`` worker processes and return an
    iterator of their results in submission order.  One worker's worth of
    work runs inline and lazily, with no fork; more runs as one pool
    ``map``, so no pool thread outlives the stream.  Fail-fast, the first
    failing task's exception is raised when the stream reaches it, and the
    not-yet-started tasks are cancelled."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return (run_task(task, fault_tolerant) for task in tasks)
    return _pooled(tasks, workers, fault_tolerant)


def _pooled(tasks: Sequence[TaskSpec], workers: int,
            fault_tolerant: bool) -> Iterator[Dict[str, Any]]:
    # Imported here: multiprocessing would add about 1.2 MiB to the RSS of
    # every process that imports repro, and only a pooled run needs it.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(run_task, tasks, itertools.repeat(fault_tolerant))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
