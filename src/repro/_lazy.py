"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules
declares them in one literal table and binds what :func:`attach`
returns::

    _EXPORTS = {"metrics": ("Counter", "MetricsRegistry"), ...}
    __getattr__, __dir__, __all__ = _lazy.attach(__name__, _EXPORTS)

Importing the package then loads none of its submodules.  The first
read of a public name imports the one submodule that defines it and
caches the value in the package namespace, so later reads are plain
attribute lookups and every name resolves to the submodule's own
object.  ``scripts/check_test_only.py`` reads the same table with the
AST, so the table must stay a literal.
"""

from __future__ import annotations

import importlib
import sys


def attach(package, exports):
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names are ``exports``: ``{submodule: (name, ...)}``, the submodule
    relative to the package."""
    owner = {name: submodule
             for submodule, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        submodule = owner.get(name)
        if submodule is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        value = getattr(importlib.import_module("." + submodule, package),
                        name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
