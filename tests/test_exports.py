"""Exported names resolve, the package re-exports its modules' objects,
and every import is used.

A deleted function that is still listed in an ``__all__`` fails here
rather than on the first ``from qdrinfeld import *``, and an import left
behind by a deletion fails here without a linter.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_every_import_is_used():
    # lines marked "# noqa: F401" keep a binding on purpose
    for module in [qdrinfeld, *MODULES]:
        source = Path(module.__file__).read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                assert name in used, f"{module.__name__} imports {name} without using it"
