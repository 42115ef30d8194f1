"""The finding record every rule emits.

A :class:`Finding` is deliberately small and serialization-first: the JSON
output of ``repro-check --json`` is a list of finding dicts, and
:meth:`Finding.from_dict` reads one back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        return cls(
            rule=str(data["rule"]),
            path=str(data["path"]),
            line=int(data.get("line", 0)),
            col=int(data.get("col", 0)),
            message=str(data["message"]),
        )

    def render(self) -> str:
        """The one-line human rendering (``path:line:col: [rule] message``)."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
