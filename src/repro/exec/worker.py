"""Subprocess entry point of the execution layer: one task in, one JSON out.

``python -m repro.exec.worker`` reads a single JSON task object
(``{"task_id": ..., "fn": "module:function", "payload": {...}}``) from
stdin, runs it, and prints the result dict as canonical JSON to stdout.
:class:`~repro.exec.backend.ProcessPoolBackend` drives one worker per task,
which keeps every task isolated in a fresh interpreter.
"""

from __future__ import annotations

import sys

from repro.artifact import canonical_json
from repro.exec.backend import TaskSpec, resolve_task_fn


def main(argv: "list[str] | None" = None) -> int:
    task = TaskSpec.from_json(sys.stdin.read())
    fn = resolve_task_fn(task.fn)
    print(canonical_json(fn(dict(task.payload))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
