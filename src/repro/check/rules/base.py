"""Rule base class and registry.

A rule is a small class with a stable ``id`` (the name pragmas refer
to), a one-line ``title``, and two entry points: per-file
:meth:`Rule.check_file` and whole-project :meth:`Rule.finalize` (for
cross-file rules such as spec-field-coverage).  Rules register themselves
with the :func:`register` decorator; :func:`default_rules` instantiates the
registry in id order so engine output is deterministic.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Type

from repro.check.context import FileContext, ProjectContext
from repro.check.findings import Finding

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """One static-analysis rule."""

    #: Stable identifier used in pragmas and ``--rules``.
    id: str = ""
    #: One-line human description (shown by ``--list-rules``).
    title: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Per-file findings (most rules live here)."""
        return ()

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        """Cross-file findings, called once after every file was parsed."""
        return ()


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} needs a non-empty id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def available_rules() -> List[Type[Rule]]:
    """Registered rule classes in id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [cls() for cls in available_rules()]
