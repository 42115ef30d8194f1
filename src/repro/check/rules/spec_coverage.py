"""spec-field-coverage: every spec/config field must be serialized,
validated and reconciled.

The declarative surface (:class:`~repro.api.spec.SystemSpec` and its
embedded :class:`~repro.sim.engine.SimulatorConfig`) promises a lossless
JSON round-trip and seed-style inherit-or-conflict reconciliation.  Those
promises are positional: adding a field and forgetting *one* of the places
it must be threaded through (``to_dict`` keys, ``from_dict``, validation,
the ``_reconcile_with_sim``/``sim_config`` reconciliation pair) silently
ships a spec that drops state on round-trip or lets two copies of the same
knob disagree.  This cross-file rule walks the dataclass field lists and
asserts, for each field:

* **serialization** — the field appears as a key in the class's ``to_dict``
  (or the partner spec serializes the whole object via ``asdict``);
* **round-trip** — ``from_dict`` rebuilds it (a generic ``cls(**payload)``
  counts as blanket coverage);
* **validation** — non-``bool`` fields are mentioned in ``__post_init__``
  or a reconciliation method (booleans cannot hold an invalid value);
* **reconciliation** — fields present on *both* classes must appear in
  ``_reconcile_with_sim`` *and* ``sim_config`` so neither copy can silently
  win.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.check.context import FileContext, ProjectContext
from repro.check.findings import Finding
from repro.check.rules.base import Rule, register

#: (class name, module prefix) pairs covered by the rule.  The first entry
#: is the outer spec, the second the embedded config it reconciles.
SPEC_CLASS = ("SystemSpec", "repro.api")
CONFIG_CLASS = ("SimulatorConfig", "repro.sim")

#: Methods whose bodies count as validation/reconciliation context.
VALIDATION_METHODS = ("__post_init__", "_reconcile_with_sim", "sim_config")

#: The reconciliation pair checked for shared fields.
RECONCILE_METHODS = ("_reconcile_with_sim", "sim_config")


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, Optional[str]]]:
    """(field name, annotation source) for every dataclass field (neither a
    ``ClassVar`` nor an ``InitVar`` is one: ``fields()`` lists neither)."""
    fields = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation or "InitVar" in annotation:
                continue
            fields.append((stmt.target.id, annotation))
    return fields


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _mentions(func: Optional[ast.FunctionDef]) -> Set[str]:
    """Every identifier a method body touches that could denote a field:
    ``self.<attr>`` / ``<obj>.<attr>`` attribute names, string literals and
    keyword-argument names (``replace(base, seed=...)``)."""
    if func is None:
        return set()
    names: Set[str] = set()
    for sub in ast.walk(func):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            names.add(sub.arg)
    return names


def _to_dict_keys(func: Optional[ast.FunctionDef]) -> Optional[Set[str]]:
    """String keys of the dict literal(s) a ``to_dict`` builds, following
    both ``return {...}`` and ``out = {...}`` then ``out[key] = ...``."""
    if func is None:
        return None
    keys: Set[str] = set()
    saw_literal = False
    for sub in ast.walk(func):
        if isinstance(sub, ast.Dict):
            saw_literal = True
            for key in sub.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Subscript) for t in sub.targets)):
            for target in sub.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    keys.add(target.slice.value)
    return keys if saw_literal else None


def _from_dict_is_generic(func: Optional[ast.FunctionDef]) -> bool:
    """True when ``from_dict`` forwards ``**payload`` into the constructor —
    blanket field coverage."""
    if func is None:
        return False
    for sub in ast.walk(func):
        if isinstance(sub, ast.Call):
            for keyword in sub.keywords:
                if keyword.arg is None:  # **payload splat
                    return True
    return False


def _serializes_via_asdict(func: Optional[ast.FunctionDef], attr: str) -> bool:
    """True when ``func`` contains ``asdict(self.<attr>)``."""
    if func is None:
        return False
    for sub in ast.walk(func):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "asdict" and sub.args):
            target = sub.args[0]
            if isinstance(target, ast.Attribute) and target.attr == attr:
                return True
    return False


@register
class SpecFieldCoverageRule(Rule):
    id = "spec-field-coverage"
    title = ("every SystemSpec/SimulatorConfig field must be serialized, "
             "round-tripped, validated and reconciled")

    def finalize(self, project: ProjectContext) -> Iterator[Finding]:
        spec_entry = project.find_class(*SPEC_CLASS)
        config_entry = project.find_class(*CONFIG_CLASS)
        if spec_entry is None and config_entry is None:
            return  # scan does not include the spec layer

        spec_fields: Dict[str, Optional[str]] = {}
        config_fields: Dict[str, Optional[str]] = {}
        if spec_entry is not None:
            spec_fields = dict(_dataclass_fields(spec_entry[1]))
        if config_entry is not None:
            config_fields = dict(_dataclass_fields(config_entry[1]))
        shared = set(spec_fields) & set(config_fields)

        if spec_entry is not None:
            ctx, node = spec_entry
            yield from self._check_class(
                ctx, node, spec_fields,
                partner_validation=set(), embedded_attr=None)
            # Reconciliation pair: shared fields must appear in both halves.
            for method_name in RECONCILE_METHODS:
                method = _method(node, method_name)
                mentioned = _mentions(method)
                for field_name in sorted(shared):
                    if method is not None and field_name not in mentioned:
                        yield Finding(
                            rule=self.id, path=ctx.relpath,
                            line=method.lineno, col=method.col_offset,
                            message=(f"shared field {field_name!r} missing "
                                     f"from {node.name}.{method_name}() — "
                                     f"both spec and sim copies exist, so it "
                                     f"must be reconciled (inherit-or-"
                                     f"conflict) and realized, never "
                                     f"silently overridden"))

        if config_entry is not None:
            ctx, node = config_entry
            partner_validation: Set[str] = set()
            if spec_entry is not None:
                for method_name in VALIDATION_METHODS:
                    partner_validation |= _mentions(
                        _method(spec_entry[1], method_name))
            embedded = None
            if spec_entry is not None:
                # SimulatorConfig rides inside SystemSpec.to_dict as
                # asdict(self.sim); find the attribute name, if any.
                spec_to_dict = _method(spec_entry[1], "to_dict")
                for field_name, annotation in spec_fields.items():
                    if (annotation and CONFIG_CLASS[0] in annotation
                            and _serializes_via_asdict(spec_to_dict,
                                                       field_name)):
                        embedded = field_name
                        break
            yield from self._check_class(
                ctx, node, config_fields,
                partner_validation=partner_validation,
                embedded_attr=embedded)

    def _check_class(self, ctx: FileContext, node: ast.ClassDef,
                     fields: Dict[str, Optional[str]],
                     partner_validation: Set[str],
                     embedded_attr: Optional[str]) -> Iterator[Finding]:
        to_dict = _method(node, "to_dict")
        from_dict = _method(node, "from_dict")
        keys = _to_dict_keys(to_dict)
        validation: Set[str] = set(partner_validation)
        for method_name in VALIDATION_METHODS:
            validation |= _mentions(_method(node, method_name))
        from_dict_generic = _from_dict_is_generic(from_dict)
        from_dict_mentions = _mentions(from_dict)

        if to_dict is None and embedded_attr is None:
            yield Finding(
                rule=self.id, path=ctx.relpath, line=node.lineno,
                col=node.col_offset,
                message=(f"{node.name} has no to_dict() and no partner "
                         f"serializes it via asdict — fields cannot "
                         f"round-trip"))

        for field_name in fields:
            annotation = fields[field_name] or ""
            if keys is not None and field_name not in keys:
                yield Finding(
                    rule=self.id, path=ctx.relpath, line=to_dict.lineno,
                    col=to_dict.col_offset,
                    message=(f"field {field_name!r} missing from "
                             f"{node.name}.to_dict() — the JSON round-trip "
                             f"silently drops it"))
            if (to_dict is not None and from_dict is not None
                    and not from_dict_generic
                    and field_name not in from_dict_mentions):
                yield Finding(
                    rule=self.id, path=ctx.relpath, line=from_dict.lineno,
                    col=from_dict.col_offset,
                    message=(f"field {field_name!r} missing from "
                             f"{node.name}.from_dict() — serialized state "
                             f"is not rebuilt"))
            if annotation != "bool" and field_name not in validation:
                yield Finding(
                    rule=self.id, path=ctx.relpath, line=node.lineno,
                    col=node.col_offset,
                    message=(f"field {field_name!r} never mentioned in "
                             f"{node.name} validation/reconciliation "
                             f"({', '.join(VALIDATION_METHODS)}) — invalid "
                             f"values surface as obscure downstream errors"))

        if keys is not None:
            for stale in sorted(keys - set(fields)):
                # Derived keys (e.g. "passed") are fine on report types; on
                # spec classes every key must map to a field.
                yield Finding(
                    rule=self.id, path=ctx.relpath, line=to_dict.lineno,
                    col=to_dict.col_offset,
                    message=(f"{node.name}.to_dict() writes key {stale!r} "
                             f"which is not a dataclass field — stale key or "
                             f"missing field"))
