"""Setuptools shim.

The canonical build configuration lives in ``pyproject.toml``; this file only
exists so that ``pip install -e . --no-use-pep517`` works in offline
environments where the ``wheel`` package is unavailable.
"""

from setuptools import setup

setup()
