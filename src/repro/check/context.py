"""Parsed-file and whole-project contexts handed to rules.

A :class:`FileContext` bundles everything a per-file rule needs: the parsed
AST, the dotted module name (derived from the package layout, so rules can
target ``repro.sim.*`` regardless of where the scan was rooted), a map of
imported names to the dotted things they denote, and the file's suppression
pragmas.  A :class:`ProjectContext` indexes every scanned file for the
cross-file rules (class lookup by name, module lookup by dotted path).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.check.pragmas import parse_pragmas


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the package layout on disk.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/sim/engine.py`` maps to ``repro.sim.engine`` no matter which
    directory the scan was rooted at.  Files outside any package map to
    their bare stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    directory = path.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:  # filesystem root
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted target for every top-level-ish import.

    ``import random`` binds ``random -> random``; ``import networkx as nx``
    binds ``nx -> networkx``; ``from time import perf_counter`` binds
    ``perf_counter -> time.perf_counter``.  Relative imports keep their
    leading dots so rules can recognise in-package references.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return mapping


def resolve_dotted(node: ast.expr, import_map: Dict[str, str]) -> Optional[str]:
    """The dotted name an expression denotes, resolved through imports.

    ``random.shuffle`` with ``import random`` resolves to
    ``random.shuffle``; ``perf_counter`` with ``from time import
    perf_counter`` resolves to ``time.perf_counter``.  Attribute chains not
    rooted at a plain name (``self.rng.random``) resolve to ``None`` — they
    denote runtime objects, not modules.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = import_map.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


class FileContext:
    """One parsed source file plus everything rules repeatedly derive."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.module = module_name_for(path)
        self.import_map = build_import_map(tree)
        self.pragmas: Dict[int, FrozenSet[str]] = parse_pragmas(source)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "FileContext":
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(path, relpath, source, tree)

    # ------------------------------------------------------------- traversal
    def functions(self) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
        """Every (function node, enclosing class or None) pair in the file."""
        for node, parent_class in walk_with_class(self.tree, None):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, parent_class

    def classes(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node


def walk_with_class(node: ast.AST, current: Optional[ast.ClassDef]
                    ) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Depth-first walk tracking the innermost enclosing class."""
    for child in ast.iter_child_nodes(node):
        yield child, current
        if isinstance(child, ast.ClassDef):
            yield from walk_with_class(child, child)
        else:
            yield from walk_with_class(child, current)


class ProjectContext:
    """Every scanned file, indexed for the cross-file rules."""

    def __init__(self, files: List[FileContext]) -> None:
        self.files = files
        self.by_module: Dict[str, FileContext] = {f.module: f for f in files}
        self.classes: Dict[str, List[Tuple[FileContext, ast.ClassDef]]] = {}
        for ctx in files:
            for node in ctx.classes():
                self.classes.setdefault(node.name, []).append((ctx, node))

    def find_class(self, name: str, module_prefix: str = ""
                   ) -> Optional[Tuple[FileContext, ast.ClassDef]]:
        """The (file, class) pair for ``name``, optionally restricted to
        modules under ``module_prefix``; ``None`` when absent or ambiguous."""
        candidates = [
            (ctx, node) for ctx, node in self.classes.get(name, ())
            if not module_prefix or ctx.module.startswith(module_prefix)
        ]
        return candidates[0] if len(candidates) == 1 else None
