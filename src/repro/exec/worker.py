"""Subprocess entry point of the execution layer: one task in, one JSON out.

``python -m repro.exec.worker`` reads a single JSON task object
(``{"task_id": ..., "fn": "module:function", "payload": {...}}``) from
stdin, runs it, and prints the result dict as JSON (sorted keys) to stdout.
:class:`~repro.exec.backend.ProcessPoolBackend` drives one worker per task,
which keeps every task isolated in a fresh interpreter.
"""

from __future__ import annotations

import json
import sys

from repro.exec.backend import resolve_task_fn


def main(argv: "list[str] | None" = None) -> int:
    task = json.load(sys.stdin)
    fn = resolve_task_fn(task["fn"])
    result = fn(dict(task.get("payload") or {}))
    json.dump(result, sys.stdout, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
