"""Plain-text table rendering shared by the experiment and scenario reports."""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a simple monospace table (markdown-compatible)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    out: List[str] = [line(list(headers)),
                      "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
