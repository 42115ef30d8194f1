"""The one artifact codec: how every spec, config and report serializes.

The reproduction's evidence — ``tests/golden/``, ``tests/corpus/``,
``EXPERIMENTS.md``, campaign and fuzz reports — is byte-reproducible because
every artifact is written one way, stated here and nowhere else:

* **encoding** — a dataclass is the dict of its fields, nested dataclasses
  encoded recursively and tuples as lists.  A class adds the derived
  properties it names (``derived=("passed",)``) and leaves out the fields it
  names as omitted when ``None`` (``omit_none=("telemetry",)``);
* **decoding** — ``cls(**data)`` minus the derived keys, so an unknown key
  raises ``TypeError`` naming it.  At construction, a nested dataclass field
  given as a dict is rebuilt from the field's type, and a tuple field given
  as a list becomes a tuple.  Any other value not of a class-typed field's
  class raises ``ValueError`` naming the field;
* **JSON** — :func:`canonical_json`: sorted keys and compact separators, or
  ``indent``-ed lines for humans.

Specs, configs and reports inherit all of it from :class:`Artifact`.  This
module imports nothing from ``repro``.
"""

from __future__ import annotations

import json
import types
from dataclasses import fields, is_dataclass, replace
from functools import lru_cache
from typing import (Any, Callable, ClassVar, Dict, Mapping, Optional, Tuple, Type, TypeVar,
                    Union, get_args, get_origin, get_type_hints)

A = TypeVar("A", bound="Artifact")
Rebuild = Callable[[Any], Any]

#: The codec methods every artifact class carries in its own ``__dict__``,
#: so patching one class's serializer (``bench/trace.py`` wraps
#: ``RunReport.to_json``) touches that class alone.
_METHODS = ("to_dict", "from_dict", "to_json", "from_json", "with_overrides")


def canonical_json(payload: Any, indent: Optional[int] = None) -> str:
    """The one JSON form of an artifact: sorted keys; compact separators, or
    ``indent``-ed lines."""
    if indent is None:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, sort_keys=True, indent=indent)


def _encode(value: Any) -> Any:
    """``value`` in JSON shape: dataclasses as field dicts, tuples as lists."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    cls = type(value)
    omit = getattr(cls, "_omit_none", ())
    out = {name: _encode(getattr(value, name)) for name in _field_names(cls)
           if not (name in omit and getattr(value, name) is None)}
    for name in getattr(cls, "_derived", ()):
        out[name] = _encode(getattr(value, name))
    return out


def _decode(cls: Type[Any], data: Mapping[str, Any]) -> Any:
    """An instance of the dataclass ``cls`` from its encoded dict."""
    if not isinstance(data, Mapping):
        raise TypeError(f"a {cls.__name__} is read from a JSON object, got {data!r}")
    derived = getattr(cls, "_derived", ())
    return cls(**{key: value for key, value in data.items() if key not in derived})


@lru_cache(maxsize=None)
def _field_names(cls: Any) -> Tuple[str, ...]:
    return tuple(field.name for field in fields(cls))


def _rebuilder(owner: str, kind: Any) -> Optional[Rebuild]:
    """What normalizes a value of the field type ``kind``: ``None`` when the
    type names neither a tuple nor a class outside ``builtins``."""
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, types.UnionType) and type(None) in args:
        inner = _rebuilder(owner, next(arg for arg in args if arg is not type(None)))
        return None if inner is None else (
            lambda value: None if value is None else inner(value))
    if origin in (tuple, list):
        item = _rebuilder(owner, args[0]) if args else None
        if item is None:
            return tuple if origin is tuple else None

        def each(value: Any) -> Any:
            items = [item(entry) for entry in value]
            same = isinstance(value, origin) and all(
                new is old for new, old in zip(items, value))
            return value if same else origin(items)
        return each
    if isinstance(kind, type) and kind.__module__ != "builtins":
        decodes = is_dataclass(kind)

        def rebuild(value: Any) -> Any:
            if isinstance(value, kind):
                return value
            if decodes and isinstance(value, dict):
                return _decode(kind, value)
            raise ValueError(f"{owner} must be a {kind.__name__}, got {value!r}")
        return rebuild
    return None


@lru_cache(maxsize=None)
def _rebuilders(cls: type) -> Tuple[Tuple[str, Rebuild], ...]:
    hints = get_type_hints(cls)
    found = ((name, _rebuilder(f"{cls.__name__}.{name}", hints[name]))
             for name in _field_names(cls))
    return tuple((name, fn) for name, fn in found if fn is not None)


class Artifact:
    """Base of every spec, config and report dataclass: the codec's methods.

    A subclass names its derived properties and its omitted-when-``None``
    fields as class keywords::

        @dataclass
        class RunReport(Artifact, derived=("passed",), omit_none=("telemetry",)):
            ...

    A subclass's own ``__post_init__`` calls ``super().__post_init__()``
    first, so its checks see the nested values already rebuilt.
    """

    _derived: ClassVar[Tuple[str, ...]] = ()
    _omit_none: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, derived: Tuple[str, ...] = (),
                          omit_none: Tuple[str, ...] = ()) -> None:
        super().__init_subclass__()
        cls._derived = derived
        cls._omit_none = omit_none
        for name in _METHODS:
            setattr(cls, name, vars(Artifact)[name])

    def __post_init__(self) -> None:
        for name, rebuild in _rebuilders(type(self)):
            value = getattr(self, name)
            rebuilt = rebuild(value)
            if rebuilt is not value:
                object.__setattr__(self, name, rebuilt)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; :meth:`from_dict` inverts it."""
        return _encode(self)

    @classmethod
    def from_dict(cls: Type[A], data: Mapping[str, Any]) -> A:
        return _decode(cls, data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return canonical_json(self.to_dict(), indent)

    @classmethod
    def from_json(cls: Type[A], text: str) -> A:
        return cls.from_dict(json.loads(text))

    def with_overrides(self: A, **kwargs: Any) -> A:
        """A copy with top-level fields replaced."""
        return replace(self, **kwargs)  # type: ignore[type-var]
