"""Exported names resolve, the package re-exports its modules' objects,
and every import is used.

A deleted function that is still listed in an ``__all__`` fails here
rather than on the first ``from qdrinfeld import *``, and an import left
behind by a deletion fails here without a linter.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import qdrinfeld
from qdrinfeld import cyclotomic
from qdrinfeld.scalar import LinearCombination, Scalar

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


def test_cyclotomic_arithmetic_never_names_fraction():
    # Sums, products and comparisons run on integer numerators; Fraction is
    # for the constructor, the inverse and building Phi_m.  Helpers these
    # methods call are followed too, except per-conductor cached tables.
    tree = ast.parse(Path(cyclotomic.__file__).read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CyclotomicNumber"]
    defs = {n.name: n for n in tree.body + cls.body if isinstance(n, ast.FunctionDef)}
    cached = {
        name for name, node in defs.items()
        if any("lru_cache" in ast.unparse(d) for d in node.decorator_list)
    }
    todo = ["__add__", "__sub__", "__neg__", "__mul__", "is_zero", "__eq__", "__hash__"]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name in cached:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            word = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert word != "Fraction", f"{name} (reached from the arithmetic) names Fraction"
            if word in defs:
                todo.append(word)
    assert {"_number", "_combine", "_check"} <= seen


def test_one_sparse_type_filters_zero_coefficients():
    # Scalars are linear combinations on exponent vectors, so the rule that
    # no zero coefficient is stored lives in LinearCombination.__init__ alone.
    assert issubclass(Scalar, LinearCombination)
    filters = []
    for path in sorted(Path(qdrinfeld.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.DictComp):
                continue
            tests = [ast.unparse(t) for gen in node.generators for t in gen.ifs]
            if any(re.fullmatch(r"not \w+\.is_zero\(\)", t) for t in tests):
                filters.append((path.name, node.lineno))
    source, first = inspect.getsourcelines(LinearCombination.__init__)
    assert [name for name, _ in filters] == ["scalar.py"], filters
    assert first <= filters[0][1] < first + len(source), filters
