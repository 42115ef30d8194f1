"""no-hotpath-allocation: per-event allocation bans in marked hot functions.

The engine's fused loops (``_send_fast``, ``_run_blocks``) exist to remove
per-event allocation: a message is one record tuple, a count is bumped in
place in an ``action -> {node: count}`` store (no per-message key tuple),
prebound closures replace attribute chains.
A well-meaning edit that reintroduces a dict/list/set display inside one of
those loops silently undoes the optimisation while every test stays green
(the cost is wall time, not semantics).

This rule makes the budget explicit.  A function opts in by carrying a
``# repro: hotpath`` marker comment anywhere in its body (by convention the
first line); inside a marked function, in modules under ``repro.sim``, the
rule flags dict/list/set **displays** (``{...}``, ``[...]``, ``{a, b}``) and
their comprehensions — each one is a fresh heap container per execution.

Tuples stay legal: the event records *are* tuples, and CPython allocates
them from a free list.  Legitimate allocations inside a marked function —
one-time setup buffers, amortised bucket creation, cold fallback branches —
carry a ``# repro: allow[no-hotpath-allocation]`` pragma naming their
excuse.  The marker only ever applies to the innermost function containing
it, so marking a closure does not tax its builder's setup code.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set, Tuple

from repro.check.context import FileContext
from repro.check.findings import Finding
from repro.check.rules.base import Rule, register

#: The marker comment opting a function into the allocation budget.
HOTPATH_MARKER = re.compile(r"#\s*repro:\s*hotpath\b")

#: Only the sim core carries marked hot loops; everything else is free to
#: allocate (report builders, scenario drivers, the checker itself).
MODULE_PREFIX = "repro.sim"

#: AST display nodes that allocate a fresh container on every execution,
#: with the human name used in the finding message.
_DISPLAY_KINDS: Tuple[Tuple[type, str], ...] = (
    (ast.Dict, "dict display"),
    (ast.List, "list display"),
    (ast.Set, "set display"),
    (ast.DictComp, "dict comprehension"),
    (ast.ListComp, "list comprehension"),
    (ast.SetComp, "set comprehension"),
)

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def marker_lines(source: str) -> Set[int]:
    """1-based line numbers carrying a ``# repro: hotpath`` marker."""
    return {
        lineno
        for lineno, text in enumerate(source.splitlines(), start=1)
        if HOTPATH_MARKER.search(text)
    }


def _hot_functions(ctx: FileContext) -> List[ast.AST]:
    """The functions owning a marker — innermost containment wins, so a
    marked closure never drags its enclosing builder into the budget."""
    markers = marker_lines(ctx.source)
    if not markers:
        return []
    functions = [func for func, _parent in ctx.functions()]
    hot: List[ast.AST] = []
    for line in markers:
        containing = [
            func for func in functions
            if func.lineno <= line <= (func.end_lineno or func.lineno)
        ]
        if not containing:
            continue  # module-level marker: nothing to scope it to
        # Nested spans are strictly contained, so the innermost function is
        # the one starting last.
        innermost = max(containing, key=lambda func: func.lineno)
        if innermost not in hot:
            hot.append(innermost)
    return hot


def _allocation_sites(func: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """(node, description) for every per-execution allocation in ``func``,
    without descending into nested functions (they opt in separately)."""

    def visit(node: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES + (ast.Lambda,)):
                continue  # a nested function carries its own marker or none
            for kind, label in _DISPLAY_KINDS:
                if isinstance(child, kind):
                    # unpacking targets ([a, b] = pair) are not allocations
                    ctx_attr = getattr(child, "ctx", None)
                    if ctx_attr is None or isinstance(ctx_attr, ast.Load):
                        yield child, label
                    break
            yield from visit(child)

    yield from visit(func)


@register
class HotpathAllocationRule(Rule):
    id = "no-hotpath-allocation"
    title = ("functions marked '# repro: hotpath' must not allocate "
             "containers per event")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not (ctx.module == MODULE_PREFIX
                or ctx.module.startswith(MODULE_PREFIX + ".")):
            return
        for func in _hot_functions(ctx):
            for node, what in _allocation_sites(func):
                yield Finding(
                    rule=self.id, path=ctx.relpath, line=node.lineno,
                    col=node.col_offset,
                    message=(f"{what} inside hotpath function "
                             f"{func.name}() — hoist it out of the marked "
                             f"loop, use a tuple, or waive a deliberate "
                             f"setup/cold-branch allocation with "
                             f"# repro: allow[{self.id}]"))
