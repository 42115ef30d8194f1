"""Task functions that only the tests run, each named by its ``module:function``
string (``exec_tasks:echo``): pytest puts this directory on ``sys.path``, and
the task runner's forked workers inherit it."""

from __future__ import annotations

from typing import Any, Dict


def echo(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Diagnostic task: return the payload unchanged (task runner plumbing)."""
    return {"echo": dict(payload)}
