"""Exported names resolve, and the package re-exports its modules' objects.

A deleted function that is still listed in an ``__all__`` fails here
rather than on the first ``from qdrinfeld import *``.
"""

import importlib
import pkgutil

import qdrinfeld

MODULES = [
    importlib.import_module(f"qdrinfeld.{info.name}")
    for info in pkgutil.iter_modules(qdrinfeld.__path__)
]


def test_every_listed_name_resolves():
    for module in [qdrinfeld, *MODULES]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


def test_package_exports_are_their_modules_objects():
    for name in qdrinfeld.__all__:
        obj = getattr(qdrinfeld, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("qdrinfeld."), name
        assert getattr(module, name) is obj, name
