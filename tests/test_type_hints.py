"""Every annotation in the mypy-strict packages resolves at runtime.

``pyproject.toml`` holds ``repro.api``, ``repro.telemetry``, ``repro.exec``
and ``repro.cli`` to strict typing, and every module there uses
``from __future__ import annotations``: an annotation naming something the
module never imported is a string nothing evaluates, so neither import nor
any test trips on it.  ``typing.get_type_hints`` evaluates each one in its
module's globals, the way mypy and ruff's undefined-name check resolve it.
"""

import importlib
import inspect
import pkgutil
import typing

STRICT_PACKAGES = ("repro.api", "repro.telemetry", "repro.exec", "repro.cli")


def _modules():
    for name in STRICT_PACKAGES:
        package = importlib.import_module(name)
        yield package
        for info in pkgutil.walk_packages(getattr(package, "__path__", []), name + "."):
            if not info.name.endswith(".__main__"):  # importing one runs its CLI
                yield importlib.import_module(info.name)


def _functions(module):
    """``(qualname, function)`` for every function and method ``module`` defines."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            for attr in vars(obj).values():
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if inspect.isfunction(attr) and attr.__module__ == module.__name__:
                    yield attr.__qualname__, attr


def test_every_annotation_resolves():
    functions = {f"{module.__name__}.{qualname}": fn
                 for module in _modules() for qualname, fn in _functions(module)}
    for package in STRICT_PACKAGES:  # the walk reaches every strict package
        assert any(name.startswith(package + ".") for name in functions), package
    unresolved = {}
    for name, fn in sorted(functions.items()):
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved[name] = str(exc)
    assert not unresolved, unresolved
