"""Reading and writing the .qdo spec-file format.

A file declares either an algebra presentation (sections [field], [group],
[action], [q], [kappa]) or a standalone color Lie ring ([field] plus
[generic-lie]).  The format is line-oriented; '#' starts a comment.  The
formatter emits a canonical form: parsing its output reproduces the same
object, and formatting is idempotent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import lcm
from pathlib import Path

from .algebra import AlgebraSpec, NCElement
from .errors import ParseError, SpecError
from .groups import AbelianGroup, ADegree, Character
from .scalar import Combination, Scalar, ScalarContext, _ExprParser

_ALGEBRA_SECTIONS = {"field", "group", "action", "q", "kappa"}
_GENERIC_SECTIONS = {"field", "generic-lie"}
_KNOWN_SECTIONS = _ALGEBRA_SECTIONS | _GENERIC_SECTIONS

# The field's arithmetic grows with the conductor: at the prime 113 a PBW
# check takes about 0.01 s, but inverting a dense element 0.5-2 s (one core).
MAX_CONDUCTOR = 120


@dataclass
class GenericLieData:
    """Raw description of a user-supplied color Lie ring.

    The grading group is Z^free_rank x (product of cyclic groups).  The
    pairing is given on the group's generators; brackets are stored for
    index pairs (a, b) with a <= b, the rest follow by antisymmetry.
    """

    ctx: ScalarContext
    free_rank: int
    torsion: AbelianGroup
    basis: tuple[str, ...]
    degrees: tuple[ADegree, ...]
    epsilon_table: dict[tuple[int, int], Scalar]
    brackets: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]]
    name: str = ""

    @property
    def gen_count(self) -> int:
        return self.free_rank + self.torsion.rank


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _split_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KNOWN_SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
        elif current is None:
            raise ParseError("content before any section header", lineno)
        else:
            sections[current].append((lineno, line))
    return sections


def _key_values(lines, allowed) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r}", lineno)
        out[key] = (lineno, value.strip())
    return out


def _parse_int(value: str, lineno: int, minimum: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ParseError(f"expected an integer, got {value!r}", lineno) from None
    if n < minimum:
        raise ParseError(f"value {n} below minimum {minimum}", lineno)
    return n


def _parse_json_list(value: str, lineno: int, what: str):
    try:
        data = json.loads(value)
    except json.JSONDecodeError:
        raise ParseError(f"{what} must be a JSON list, got {value!r}", lineno) from None
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a JSON list", lineno)
    return data


def _int_row(row, lineno: int, what: str) -> list[int]:
    # not isinstance: JSON true and false are bools, which are ints too
    if not isinstance(row, list) or not all(type(x) is int for x in row):
        raise ParseError(f"{what} must be a list of integers", lineno)
    return row


def _index_pair(line, lineno, sep, form, noun, bound, seen, skip=0):
    """(i, j, rest) of a row 'i j <sep> rest' after skip leading words, with
    i and j 0-based, below bound and not yet a key of seen."""
    head, found, rest = line.partition(sep)
    parts = head.split()
    if found != sep or len(parts) != skip + 2:
        raise ParseError(f"expected '{form}', got {line!r}", lineno)
    i = _parse_int(parts[skip], lineno, 1) - 1
    j = _parse_int(parts[skip + 1], lineno, 1) - 1
    if i >= bound or j >= bound:
        raise ParseError(f"{noun} index out of range ({i + 1}, {j + 1})", lineno)
    if (i, j) in seen:
        raise ParseError(f"duplicate {noun} entry ({i + 1}, {j + 1})", lineno)
    return i, j, rest


def _parse_params(value: str, lineno: int) -> tuple[str, ...]:
    if not value:
        return ()
    names = [p.strip() for p in value.split(",")]
    if any(not p for p in names):
        raise ParseError("empty parameter name", lineno)
    return tuple(names)


def _build_context(field_kv, default_conductor: int, default_line: int | None) -> ScalarContext:
    """The spec's field; the default conductor comes from the orders row."""
    lineno, conductor = default_line, default_conductor
    if "conductor" in field_kv:
        lineno, value = field_kv["conductor"]
        conductor = _parse_int(value, lineno, 1)
        if conductor % default_conductor != 0:
            raise ParseError(
                f"conductor {conductor} is not a multiple of the group exponent "
                f"{default_conductor}",
                lineno,
            )
    if conductor > MAX_CONDUCTOR:
        raise ParseError(f"conductor {conductor} exceeds the bound {MAX_CONDUCTOR}", lineno)
    params: tuple[str, ...] = ()
    if "params" in field_kv:
        lineno, value = field_kv["params"]
        params = _parse_params(value, lineno)
    try:
        return ScalarContext(conductor, params)
    except SpecError as exc:
        raise ParseError(str(exc), field_kv.get("params", (None, ""))[0]) from None


def _parse_algebra(sections, name: str) -> AlgebraSpec:
    for required in ("group", "action"):
        if required not in sections:
            raise ParseError(f"missing section [{required}]")
    field_kv = _key_values(sections.get("field", []), {"conductor", "params"})
    group_kv = _key_values(sections["group"], {"orders"})
    action_kv = _key_values(sections["action"], {"characters"})

    if "orders" not in group_kv:
        raise ParseError("missing 'orders' in [group]")
    lineno, value = group_kv["orders"]
    orders = _int_row(_parse_json_list(value, lineno, "orders"), lineno, "orders")
    if not orders or any(m < 1 for m in orders):
        raise ParseError("orders must be positive integers", lineno)
    group = AbelianGroup(orders)

    ctx = _build_context(field_kv, group.exponent, lineno)

    if "characters" not in action_kv:
        raise ParseError("missing 'characters' in [action]")
    lineno, value = action_kv["characters"]
    rows = _parse_json_list(value, lineno, "characters")
    if not rows:
        raise ParseError("at least one character row is required", lineno)
    chars = []
    for row in rows:
        exps = _int_row(row, lineno, "character row")
        if len(exps) != group.rank:
            raise ParseError(
                f"character row needs {group.rank} entries, got {len(exps)}", lineno
            )
        chars.append(Character(group, exps))
    n = len(chars)

    q_entries: dict[tuple[int, int], Scalar] = {}
    for lineno, line in sections.get("q", []):
        i, j, expr = _index_pair(line, lineno, "=", "i j = expr", "q", n, q_entries)
        q_entries[(i, j)] = _ExprParser(expr.strip(), ctx, lineno).parse()

    kappa: dict[tuple[int, int], list] = {}
    for lineno, line in sections.get("kappa", []):
        # an 'i i' row is never stored, so it cannot fail the duplicate test first
        i, j, rhs = _index_pair(line, lineno, "->", "i j -> terms", "kappa", n, kappa)
        if i == j:
            raise ParseError(
                f"kappa(v{i + 1}, v{i + 1}) must vanish by quantum antisymmetry",
                lineno,
            )
        terms = []
        for chunk in rhs.split(";"):
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty kappa term", lineno)
            bits = chunk.split(None, 1)
            if len(bits) != 2:
                raise ParseError(f"expected 'r (exps) expr', got {chunk!r}", lineno)
            r = _parse_int(bits[0], lineno, 1) - 1
            if r >= n:
                raise ParseError(f"kappa target v{r + 1} out of range", lineno)
            parser = _ExprParser(bits[1], ctx, lineno)
            g = parser.group_element(group)
            terms.append((r, g, parser.parse()))
        kappa[(i, j)] = terms

    # in index order, so the inconsistent pair reported does not depend on the row order
    return AlgebraSpec(ctx, group, chars, q_entries, dict(sorted(kappa.items())), name=name)


def _parse_generic(sections, name: str) -> GenericLieData:
    keys = {"free_rank", "orders", "basis", "degrees"}
    kv_lines = []
    epsilon_lines = []
    bracket_lines = []
    for lineno, line in sections["generic-lie"]:
        head = line.split(None, 1)[0]
        if head == "epsilon":
            epsilon_lines.append((lineno, line))
        elif head == "bracket":
            bracket_lines.append((lineno, line))
        else:
            kv_lines.append((lineno, line))
    kv = _key_values(kv_lines, keys)

    free_rank = 0
    if "free_rank" in kv:
        lineno, value = kv["free_rank"]
        free_rank = _parse_int(value, lineno, 0)
    orders: list[int] = []
    if "orders" in kv:
        lineno, value = kv["orders"]
        orders = _int_row(_parse_json_list(value, lineno, "orders"), lineno, "orders")
        if any(m < 1 for m in orders):
            raise ParseError("orders must be positive integers", lineno)
    torsion = AbelianGroup(orders)
    gen_count = free_rank + torsion.rank
    if gen_count == 0:
        raise ParseError("the grading group needs at least one generator")

    field_kv = _key_values(sections.get("field", []), {"conductor", "params"})
    ctx = _build_context(field_kv, lcm(*orders) if orders else 1, kv.get("orders", (None,))[0])

    if "basis" not in kv:
        raise ParseError("missing 'basis' in [generic-lie]")
    lineno, value = kv["basis"]
    basis = _parse_params(value, lineno)
    if not basis or len(set(basis)) != len(basis):
        raise ParseError("basis labels must be nonempty and distinct", lineno)
    if set(basis) & set(ctx.params):
        raise ParseError("basis labels collide with scalar parameters", lineno)

    if "degrees" not in kv:
        raise ParseError("missing 'degrees' in [generic-lie]")
    lineno, value = kv["degrees"]
    rows = _parse_json_list(value, lineno, "degrees")
    if len(rows) != len(basis):
        raise ParseError("one degree row per basis label is required", lineno)
    degrees = []
    for row in rows:
        exps = _int_row(row, lineno, "degree row")
        if len(exps) != gen_count:
            raise ParseError(
                f"degree row needs {gen_count} entries, got {len(exps)}", lineno
            )
        degrees.append(
            ADegree(exps[:free_rank], torsion.element(exps[free_rank:]))
        )

    epsilon_table: dict[tuple[int, int], Scalar] = {}
    for lineno, line in epsilon_lines:
        s, t, expr = _index_pair(
            line, lineno, "=", "epsilon s t = expr", "epsilon", gen_count, epsilon_table, skip=1
        )
        epsilon_table[(s, t)] = _ExprParser(expr.strip(), ctx, lineno).parse()

    label_index = {label: a for a, label in enumerate(basis)}
    brackets: dict[tuple[int, int], tuple[tuple[int, Scalar], ...]] = {}
    for lineno, line in bracket_lines:
        head, eq, rhs = line.partition("=")
        parts = head.split()
        if eq != "=" or len(parts) != 3:
            raise ParseError(f"expected 'bracket X Y = combo', got {line!r}", lineno)
        for label in parts[1:3]:
            if label not in label_index:
                raise ParseError(f"unknown basis label {label!r}", lineno)
        a, b = label_index[parts[1]], label_index[parts[2]]
        if (a, b) in brackets:
            raise ParseError(f"duplicate bracket ({parts[1]}, {parts[2]})", lineno)
        brackets[(a, b)] = _parse_combination(rhs.strip(), ctx, label_index, lineno)

    return GenericLieData(
        ctx=ctx,
        free_rank=free_rank,
        torsion=torsion,
        basis=basis,
        degrees=tuple(degrees),
        epsilon_table=epsilon_table,
        brackets=brackets,
        name=name,
    )


def _parse_combination(text, ctx, label_index, lineno):
    """Parse 'c1*X + c2*Y - Z' into ((index, Scalar), ...): the expression
    grammar with the basis labels as extra atoms, at most one per product."""
    one = Combination({None: Scalar.one(ctx)})

    def label(parser, name):
        index = label_index.get(name)
        return None if index is None else Combination({index: one.terms[None]})

    def product(x, y):
        scalar = parser.scalar_of(y)
        if scalar is not None:
            return x.scale(scalar)
        scalar = parser.scalar_of(x)
        if scalar is None:
            parser.error("a bracket term may hold only one basis label")
        return y.scale(scalar)

    parser = _ExprParser(text, ctx, lineno, one=one, mul=product, atom=label)
    value = parser.parse()
    if None in value.terms:
        parser.error("a bracket term needs exactly one basis label")
    return tuple(sorted(value.terms.items()))


def parse_spec_text(text: str, name: str = ""):
    sections = _split_sections(text)
    has_generic = "generic-lie" in sections
    has_algebra = bool(set(sections) & {"group", "action", "q", "kappa"})
    if has_generic and has_algebra:
        raise ParseError("a file declares either an algebra or a generic ring")
    if has_generic:
        return _parse_generic(sections, name)
    if has_algebra:
        return _parse_algebra(sections, name)
    raise ParseError("no algebra or generic ring sections found")


def parse_spec_file(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} cannot be decoded") from None
    return parse_spec_text(text, name=path.stem)


# ---------------------------------------------------------------------------
# canonical output


def format_spec(obj) -> str:
    if isinstance(obj, AlgebraSpec):
        return _format_algebra(obj)
    if isinstance(obj, GenericLieData):
        return _format_generic(obj)
    raise SpecError(f"cannot format {type(obj).__name__}")


def _field_lines(ctx: ScalarContext) -> list[str]:
    lines = ["[field]", f"conductor = {ctx.conductor}"]
    if ctx.params:
        lines.append("params = " + ", ".join(ctx.params))
    return lines


def _format_algebra(spec: AlgebraSpec) -> str:
    lines = _field_lines(spec.ctx)
    lines += ["", "[group]", f"orders = {json.dumps(list(spec.group.orders))}"]
    rows = [list(chi.exps) for chi in spec.chars]
    lines += ["", "[action]", f"characters = {json.dumps(rows)}"]
    lines += ["", "[q]"]
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            lines.append(f"{i + 1} {j + 1} = {spec.q_scalar(i, j)}")
    support = spec.kappa_support()
    if support:
        lines += ["", "[kappa]"]
        for i, j in support:
            terms = sorted(spec.kappa_pairs(i, j), key=lambda t: (t[0], t[1].exps))
            rendered = " ; ".join(
                f"{r + 1} ({','.join(str(e) for e in g.exps)}) {c}"
                for r, g, c in terms
            )
            lines.append(f"{i + 1} {j + 1} -> {rendered}")
    return "\n".join(lines) + "\n"


def _format_generic(data: GenericLieData) -> str:
    lines = _field_lines(data.ctx)
    lines += ["", "[generic-lie]"]
    lines.append(f"free_rank = {data.free_rank}")
    lines.append(f"orders = {json.dumps(list(data.torsion.orders))}")
    lines.append("basis = " + ", ".join(data.basis))
    rows = [deg.as_int_vector() for deg in data.degrees]
    lines.append(f"degrees = {json.dumps(rows)}")
    for (s, t), value in sorted(data.epsilon_table.items()):
        lines.append(f"epsilon {s + 1} {t + 1} = {value}")
    for (a, b), terms in sorted(data.brackets.items()):
        if not terms:
            continue
        rhs = Combination(dict(terms)).signed_str(lambda index: data.basis[index])
        lines.append(f"bracket {data.basis[a]} {data.basis[b]} = {rhs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# free element expressions (the normal-form command)


def parse_nc_expression(text: str, spec: AlgebraSpec) -> NCElement:
    """Read an element: the expression grammar with the generators vK and
    the group letters g(e1,...) as extra atoms."""

    def atom(parser, name):
        if name == "g" and parser.peek() == ("op", "("):
            return NCElement.group_unit(spec, parser.group_element(spec.group))
        if name[:1] == "v" and name[1:].isdigit():
            if not 0 < int(name[1:]) <= spec.n:
                parser.error(f"generator {name!r} out of range")
            return NCElement.monomial(spec, (int(name[1:]) - 1,))
        return None

    return _ExprParser(text, spec.ctx, one=NCElement.monomial(spec, ()), atom=atom).parse()


# ---------------------------------------------------------------------------
# bundled fixtures

_FIXTURE_NAMES = ("ex1", "ex2", "ex3", "ex4", "gl11", "zero-kappa")
# resolved once: importlib.resources and pathlib cost more than reading
# a small fixture
_FIXTURE_DIR = Path(str(resources.files("qdrinfeld") / "fixtures"))


def fixture_names() -> tuple[str, ...]:
    return _FIXTURE_NAMES


def fixture_path(name: str) -> Path:
    if name not in _FIXTURE_NAMES:
        raise SpecError(f"unknown fixture {name!r}; choose from {_FIXTURE_NAMES}")
    return _FIXTURE_DIR / f"{name}.qdo"


def load_fixture(name: str):
    return parse_spec_file(fixture_path(name))


__all__ = [
    "GenericLieData",
    "parse_spec_text",
    "parse_spec_file",
    "format_spec",
    "parse_nc_expression",
    "fixture_names",
    "fixture_path",
    "load_fixture",
]
