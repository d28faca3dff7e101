"""Exported names resolve, the package re-exports its modules' objects,
every import is used, every private helper is used, and every parameter
is read.

A deleted function that is still listed in an ``__all__`` fails here
rather than on the first ``from qdrinfeld import *``, and an import or a
helper left behind by a deletion fails here without a linter.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import tokenize
from pathlib import Path

import qdrinfeld
from qdrinfeld import cyclotomic
from qdrinfeld.algebra import NCElement
from qdrinfeld.hopf import BraidedTensorElement
from qdrinfeld.scalar import Combination, LinearCombination, Scalar
from qdrinfeld.specfile import load_fixture

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


def test_scalar_has_no_methods_for_scalar_coefficients():
    # scale, sum_str and signed_str assume Scalar coefficients, which a
    # scalar's own field-element terms are not
    methods = ("scale", "sum_str", "signed_str")
    for name in methods:
        assert not hasattr(Scalar, name), name
        assert not hasattr(LinearCombination, name), name
    for cls in (Combination, NCElement, BraidedTensorElement):
        assert issubclass(cls, Combination)
        assert all(callable(getattr(cls, name)) for name in methods), cls


def test_trusted_builds_fill_each_class_own_slots():
    # _trusted fills a class's own __slots__ from the space in order, so
    # rebuilding an element from its _space() and terms gives it back
    spec = load_fixture("ex2")
    elements = (
        Scalar.param(spec.ctx, "lam"),
        NCElement.monomial(spec, (0, 1)),
        BraidedTensorElement.unit(spec),
        Combination({0: Scalar.one(spec.ctx)}),
    )
    for x in elements:
        assert type(x)._trusted(x._space(), x.terms) == x


def test_every_top_level_definition_is_used_or_exported():
    # a function or class that nothing in the package names and no
    # __all__ lists is dead code, such as a decider kept on in src/
    # after its checks moved to the tests
    trees = {module: ast.parse(Path(module.__file__).read_text()) for module in MODULES}
    exported = {name for module in [qdrinfeld, *MODULES] for name in getattr(module, "__all__", ())}
    referenced = set()
    for tree in trees.values():
        for top in tree.body:
            own = {top.name} if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else set()
            for node in ast.walk(top):
                word = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if word is not None and word not in own:
                    referenced.add(word)
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                name = top.name
                assert name in referenced or name in exported, f"{module.__name__}.{name}"


def test_every_private_helper_is_named_on_another_line():
    # a module-level _helper that no other line of code in src/ names
    # (docstrings and comments do not count) is left over from a deletion
    names: dict[str, list[tuple[str, int]]] = {}
    helpers = []
    for module in [qdrinfeld, *MODULES]:
        path = Path(module.__file__)
        with path.open() as source:
            for token in tokenize.generate_tokens(source.readline):
                if token.type == tokenize.NAME:
                    names.setdefault(token.string, []).append((path.name, token.start[0]))
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_"):
                helpers.append((path.name, top.name, top.lineno, top.end_lineno))
    assert helpers
    for file, name, first, last in helpers:
        elsewhere = [
            (where, line) for where, line in names.get(name, [])
            if where != file or not first <= line <= last
        ]
        assert elsewhere, f"{file}: {name} is named by no other line"


def test_every_parameter_is_read():
    # a parameter that its function never reads is a knob left over from
    # a deleted path.  The receiver of a method is bound by the call, and
    # nested functions are callbacks whose signature their caller fixes,
    # such as _parse_combination's label(parser, name); both are exempt
    for module in [qdrinfeld, *MODULES]:
        tree = ast.parse(Path(module.__file__).read_text())
        functions = [(top, 0) for top in tree.body if isinstance(top, ast.FunctionDef)]
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.FunctionDef):
                    static = any(ast.unparse(d) == "staticmethod" for d in method.decorator_list)
                    functions.append((method, 0 if static else 1))
        for function, bound in functions:
            args = function.args
            params = [a.arg for a in args.posonlyargs + args.args][bound:]
            params += [a.arg for a in args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {
                node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for name in params:
                assert name in read, f"{module.__name__}.{function.name} never reads {name}"
