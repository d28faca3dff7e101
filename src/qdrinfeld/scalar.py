"""Coefficient scalars: Laurent polynomials in named parameters over Q(zeta_m).

A ``Scalar`` maps integer exponent vectors (one slot per declared parameter)
to nonzero cyclotomic coefficients.  Units are exactly the one-term scalars,
which is what the deformation data needs: every q entry and every character
value must be invertible, while coefficients of the bracket may be arbitrary.
:class:`LinearCombination` is the one sparse vector type: a ``Scalar`` is
one on exponent vectors, and a :class:`Combination` is one with scalar
coefficients.  The module also holds the one expression grammar of
the package; spec rows and element expressions extend it with their own
atoms.

The scalars of one spec share a :class:`ScalarContext`.  A constant
+-zeta^k knows its index in the table of such values (``cyclotomic._units``),
so a product, negation, inverse or comparison of two of them is index
arithmetic, and its result sits on the context's shared terms of the index.
The context keeps those terms, never a scalar: a scalar holds its context,
so a context holding scalars would sit in a reference cycle.  As it is, a
context dies with its last scalar, without the cycle collector.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber, _units, join_signed, power, root_index, times
from .errors import NotAUnit, ParseError, SpecError


# Powers in user input are refused past these bounds instead of computed:
# the exponent, and the term count any intermediate product may reach.
MAX_POWER = 1000
MAX_POWER_TERMS = 10000
# Parentheses and unary minus signs nest at most this deep: the parser
# recurses on each, so deeper input would exhaust the interpreter's stack.
MAX_NESTING = 100


def accumulate(terms: dict, key, coeff) -> None:
    """Add coeff to terms[key] in place, dropping the key when the sum is zero.

    The values are scalars, or the field elements of a scalar's own terms.
    """
    acc = terms.get(key)
    total = coeff if acc is None else acc + coeff
    if total.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = total


class LinearCombination:
    """A finite sum of hashable keys with nonzero coefficients.

    Subclasses fix what a key means and, through _space and the leading
    entries of their own __slots__ in that order, the space the terms
    live in.  Equal
    combinations have equal dicts: the public constructor drops the zero
    coefficients of outside input, and every other build is _trusted.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None) -> None:
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def _trusted(cls, space: tuple, terms: dict) -> LinearCombination:
        """An element of cls on the given space, keeping terms as given.

        The caller vouches that no coefficient is zero: accumulate stores
        none, negation, subsets and keys moved by a bijection keep terms
        clean, and Q(zeta_m)[params^+-] is a domain, so products of nonzero
        coefficients are nonzero.  No terms are mutated, so dicts are shared.
        """
        x = object.__new__(cls)
        for name, value in zip(cls.__slots__, space):
            setattr(x, name, value)
        x.terms = terms
        return x

    @classmethod
    def zero(cls, *space) -> LinearCombination:
        """The empty sum on the space, as Scalar.zero(ctx) or NCElement.zero(spec)."""
        return cls._trusted(space, {})

    def _space(self) -> tuple:
        """Constructor arguments before terms, shared by combinable elements."""
        return ()

    def _like(self, terms) -> LinearCombination:
        return self._trusted(self._space(), terms)

    def _check(self, other: LinearCombination) -> None:
        if type(other) is not type(self) or other._space() != self._space():
            raise SpecError("elements belong to different algebras or tensor powers")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: LinearCombination) -> LinearCombination:
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            accumulate(terms, key, coeff)
        return self._like(terms)

    def __sub__(self, other: LinearCombination) -> LinearCombination:
        return self + (-other)

    def __neg__(self) -> LinearCombination:
        return self._like({k: -c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        # the terms first: unequal ones decide without building two spaces
        return (
            type(other) is type(self)
            and self.terms == other.terms
            and other._space() == self._space()
        )

    __hash__ = None


class Combination(LinearCombination):
    """A linear combination with Scalar coefficients: the free elements, the
    braided tensors and, as plain instances, the bracket combinations."""

    __slots__ = ()

    def scale(self, s: Scalar) -> Combination:
        # s may be zero, so the products are filtered
        return type(self)(*self._space(), {k: s * c for k, c in self.terms.items()})

    def sum_str(self, label, order=None) -> str:
        """c1*label(k1) + c2*label(k2) + ... over the keys sorted by order."""
        keys = sorted(self.terms, key=order)
        return " + ".join(f"{self.terms[k].factor_str()}*{label(k)}" for k in keys) or "0"

    def signed_str(self, label, order=None) -> str:
        """Like sum_str, with unit coefficients left out and signs folded into ' - '."""
        pieces = []
        for key in sorted(self.terms, key=order):
            body, cs = label(key), self.terms[key].factor_str()
            pieces.append(times(cs, body) if body else cs)
        return join_signed(pieces)


@dataclass(frozen=True)
class ScalarContext:
    """Conductor and parameter names shared by all scalars of one spec.

    Next to its fields the context keeps, in its ``__dict__``, the table
    of +-zeta^k of its conductor (``_units``) and ``_root_terms``, the
    terms of each constant +-zeta^k its scalars have met, by table index;
    the terms of 1, at index 0, are also ``_one_terms``, by which
    ``Scalar.__mul__`` tells a factor of 1.  No scalar's terms are ever
    mutated, which makes the sharing safe.  The context keeps terms and
    field elements, never a ``Scalar``, so it holds no reference back to
    itself and dies without the cycle collector.
    """

    conductor: int
    params: tuple[str, ...] = ()

    def __post_init__(self):
        if self.conductor < 1:
            raise SpecError(f"conductor must be >= 1, got {self.conductor}")
        seen = set()
        for name in self.params:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise SpecError(f"bad parameter name {name!r}")
            if name == "zeta" or re.fullmatch(r"[vg][0-9]*", name):
                raise SpecError(f"parameter name {name!r} is reserved")
            if name in seen:
                raise SpecError(f"duplicate parameter name {name!r}")
            seen.add(name)
        # the frozen dataclass refuses setattr, not its __dict__
        units = _units(self.conductor)
        one = {(0,) * len(self.params): units[0]}
        self.__dict__.update(_units=units, _one_terms=one, _root_terms={0: one})

    @property
    def rank(self) -> int:
        return len(self.params)


class Scalar(LinearCombination):
    """A Laurent polynomial in the context's parameters over Q(zeta_m).

    ``root`` has the contract of ``CyclotomicNumber.root``: the index in
    the context's table of +-zeta^k (``cyclotomic._units``) of a constant
    +-zeta^k, -1 for any other scalar, or None until ``_root_index`` looks
    it up.  Products, negations, inverses and comparisons of two such
    scalars are sums, shifts, negatives and comparisons of indices, and
    they return scalars on the context's shared terms of the index.
    """

    __slots__ = ("ctx", "root")

    def __init__(self, ctx: ScalarContext, terms: dict) -> None:
        self.ctx = ctx
        self.root = None
        super().__init__(terms)

    def _space(self) -> tuple:
        return (self.ctx,)

    @classmethod
    def _trusted(cls, space: tuple, terms: dict) -> Scalar:
        """As LinearCombination._trusted, with the slots set directly:
        scalar arithmetic builds through here, where the generic slot
        loop would cost about as much as the rest of the build."""
        x = object.__new__(cls)
        x.ctx, = space
        x.terms = terms
        x.root = None
        return x

    def _like(self, terms) -> Scalar:
        return self._trusted((self.ctx,), terms)

    @classmethod
    def _unit(cls, ctx: ScalarContext, k: int) -> Scalar:
        """The constant of table index k, on the context's shared terms.

        Built here, not through _trusted, since this is the result of most
        products: a table entry is never zero."""
        terms = ctx._root_terms.get(k)
        if terms is None:
            terms = ctx._root_terms[k] = {(0,) * ctx.rank: ctx._units[k]}
        x = object.__new__(cls)
        x.ctx, x.terms, x.root = ctx, terms, k
        return x

    def _root_index(self) -> int:
        """self.root, looked up and kept on first use."""
        k = self.root
        if k is None:
            k = -1
            if len(self.terms) == 1:
                (exps, coeff), = self.terms.items()
                if not any(exps):
                    k = root_index(coeff)
            self.root = k
        return k

    # -- constructors ---------------------------------------------------------

    @classmethod
    def one(cls, ctx: ScalarContext) -> Scalar:
        return cls._unit(ctx, 0)

    @classmethod
    def rational(cls, ctx: ScalarContext, value) -> Scalar:
        return cls.from_cyclotomic(ctx, CyclotomicNumber.from_rational(ctx.conductor, value))

    @classmethod
    def from_cyclotomic(cls, ctx: ScalarContext, value: CyclotomicNumber) -> Scalar:
        if value.m != ctx.conductor:
            raise SpecError(f"conductor mismatch: {value.m} vs {ctx.conductor}")
        if value.is_zero():
            return cls.zero(ctx)
        k = root_index(value)
        if k >= 0:
            return cls._unit(ctx, k)
        return cls._trusted((ctx,), {(0,) * ctx.rank: value})

    @classmethod
    def zeta(cls, ctx: ScalarContext, d: int, power: int = 1) -> Scalar:
        return cls.from_cyclotomic(ctx, CyclotomicNumber.root_of_unity(ctx.conductor, d, power))

    @classmethod
    def param(cls, ctx: ScalarContext, name: str, power: int = 1) -> Scalar:
        if name not in ctx.params:
            raise SpecError(f"unknown parameter {name!r}")
        exps = [0] * ctx.rank
        exps[ctx.params.index(name)] = power
        return cls._trusted((ctx,), {tuple(exps): CyclotomicNumber.one(ctx.conductor)})

    # -- ring operations ------------------------------------------------------

    def _check(self, other: Scalar) -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise SpecError(f"scalar context mismatch: {self.ctx} vs {other.ctx}")

    # bound here, not only inherited, because bench/tracing.py counts the
    # calls by patching the entry in Scalar.__dict__
    __add__ = LinearCombination.__add__

    def __mul__(self, other: Scalar) -> Scalar:
        self._check(other)
        # a factor on the shared terms of 1 leaves the other one as it is
        if self.terms is self.ctx._one_terms:
            return other
        if other.terms is other.ctx._one_terms:
            return self
        # a kept root index is read inline, and _root_index runs only on
        # first use: most factors of a PBW decision are +-zeta^k
        a = self.root
        if a is None:
            a = self._root_index()
        if a >= 0:
            b = other.root
            if b is None:
                b = other._root_index()
            if b >= 0:
                return Scalar._unit(self.ctx, (a + b) % len(self.ctx._units))
        if len(self.terms) == 1 == len(other.terms):
            # one multiply, and a product of nonzero field elements is nonzero
            (e1, c1), = self.terms.items()
            (e2, c2), = other.terms.items()
            exps = tuple(map(operator.add, e1, e2))
            if any(exps):
                return self._like({exps: c1 * c2})
            return Scalar.from_cyclotomic(self.ctx, c1 * c2)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, tuple(map(operator.add, e1, e2)), c1 * c2)
        return self._like(out)

    def __neg__(self) -> Scalar:
        k = self._root_index()
        if k >= 0:
            n = len(self.ctx._units)
            return Scalar._unit(self.ctx, (k + n // 2) % n)
        return super().__neg__()

    def __eq__(self, other) -> bool:
        # as LinearCombination.__eq__, which it inlines: when one of two
        # scalars of a context is a +-zeta^k, equal values are equal indices
        if type(other) is not Scalar:
            return False
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        a = self.root
        if a is None:
            a = self._root_index()
        b = other.root
        if b is None:
            b = other._root_index()
        if a >= 0 or b >= 0:
            return a == b
        return self.terms == other.terms

    def __pow__(self, k: int) -> Scalar:
        base = self.inv() if k < 0 else self
        return power(base, abs(k), Scalar.one(self.ctx))

    def inv(self) -> Scalar:
        """Invert a unit; only Laurent monomials qualify."""
        if len(self.terms) != 1:
            raise NotAUnit(f"{self} is not a unit (needs exactly one term)")
        k = self._root_index()
        if k >= 0:
            return Scalar._unit(self.ctx, -k % len(self.ctx._units))
        (exps, coeff), = self.terms.items()
        return self._like({tuple(-e for e in exps): coeff.inverse()})

    # -- predicates -----------------------------------------------------------

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> CyclotomicNumber:
        if self.is_zero():
            return CyclotomicNumber.zero(self.ctx.conductor)
        if not self.is_constant():
            raise SpecError(f"{self} has free parameters")
        return next(iter(self.terms.values()))

    def factor_str(self) -> str:
        """Render so the result can be dropped into a larger product."""
        s = str(self)
        if len(self.terms) > 1:
            return f"({s})"
        if len(self.terms) == 1:
            exps, coeff = next(iter(self.terms.items()))
            if coeff.term_count() > 1 and not any(exps):
                return f"({s})"
        return s

    # -- substitution ---------------------------------------------------------

    def substitute(self, values: dict[str, Scalar], target: ScalarContext) -> Scalar:
        """Replace parameters by scalars of ``target``; unnamed parameters keep
        their slot only if ``target`` still declares them."""
        out = Scalar.zero(target)
        for exps, coeff in self.terms.items():
            term = Scalar.from_cyclotomic(target, coeff)
            for name, e in zip(self.ctx.params, exps):
                if e == 0:
                    continue
                if name in values:
                    term = term * values[name] ** e
                else:
                    term = term * Scalar.param(target, name, e)
            out = out + term
        return out

    # -- canonical text -------------------------------------------------------

    def __str__(self) -> str:
        return join_signed(
            [_format_term(self.ctx, exps, self.terms[exps]) for exps in sorted(self.terms)]
        )

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _format_term(ctx: ScalarContext, exps, coeff: CyclotomicNumber) -> str:
    mono = "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(ctx.params, exps)
        if e != 0
    )
    if not mono:
        return str(coeff)
    cs = str(coeff)
    if coeff.term_count() > 1:
        cs = f"({cs})"
    return times(cs, mono)


# ---------------------------------------------------------------------------
# parsing: the one expression grammar of the package
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' ['-'] INT)?
#   atom   := INT ('/' INT)? | 'zeta' '(' INT ')' | PARAM | '(' expr ')' | '-' factor
#           | an atom of the entry point
#
# A bare '/' between anything but two integer literals is rejected: the
# coefficient ring has Laurent monomial units only, not general fractions.
# Values are scalars unless an entry point passes ``one``, the unit of a
# linear combination type whose scalars sit on the single key of ``one``,
# together with its product ``mul`` and an ``atom`` hook for its own names
# (basis labels, vK, g(e1,...)), tried on a name before zeta and the
# parameters.  Negative powers exist for scalar values only, where they
# invert a unit.

# integers take digit groups (1_000) as int() does, which kappa group
# exponents have always accepted
_TOKEN_RE = re.compile(r"(\d+(?:_\d+)*)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),])|(\S)")
_END = (None, None)


class _ExprParser:
    def __init__(self, text: str, ctx: ScalarContext, line=None, one=None,
                 mul=operator.mul, atom=None) -> None:
        self.source = text
        self.ctx = ctx
        self.line = line
        self.one = one
        self.unit_key = None if one is None else next(iter(one.terms))
        self.mul = mul
        self.entry_atom = atom
        self.tokens = []
        for number, name, op, bad in _TOKEN_RE.findall(text):
            if bad:
                self.error(f"unexpected character {bad!r}")
            self.tokens.append(
                ("int", int(number)) if number else ("name", name) if name else ("op", op)
            )
        self.tokens.append(_END)
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise ParseError(f"{message} in {self.source!r}", self.line)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        if tok is not _END:
            self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        if self.take() != ("op", op):
            self.error(f"expected {op!r}")

    def lift(self, value: Scalar):
        return value if self.one is None else self.one.scale(value)

    def scalar_of(self, value):
        """The scalar a value stands for, or None when it holds more."""
        if self.one is None:
            return value
        if value.terms.keys() <= {self.unit_key}:
            return value.terms.get(self.unit_key, Scalar.zero(self.ctx))
        return None

    def parse(self):
        value = self.expr()
        if self.peek() is not _END:
            self.error("trailing input")
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.pos += 1
                value = value + self.term()
            elif tok == ("op", "-"):
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.pos += 1
                value = self.mul(value, self.factor())
            elif tok == ("op", "/"):
                self.error("general division is not supported")
            else:
                return value

    def factor(self):
        value = self.atom()
        if self.peek() != ("op", "^"):
            return value
        self.pos += 1
        k = self.signed_int()
        if abs(k) > MAX_POWER:
            self.error(f"exponent {abs(k)} exceeds the bound {MAX_POWER}")
        scalar = self.scalar_of(value)
        if scalar is None:
            if k < 0:
                self.error("a negative power needs a scalar base")
            return power(value, k, self.one, self.bounded(self.mul))
        if k < 0 and not scalar.is_unit():
            self.error(f"{scalar} has no negative power: not a unit (needs exactly one term)")
        base = scalar.inv() if k < 0 else scalar
        return self.lift(power(base, abs(k), Scalar.one(self.ctx), self.bounded(operator.mul)))

    def nest(self) -> None:
        """Enter one more '(' or unary '-', refused past MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nesting of '(' and unary '-' exceeds the bound {MAX_NESTING}")

    def bounded(self, mul):
        """mul, refused before a product that may pass MAX_POWER_TERMS terms."""
        def product(x, y):
            if len(x.terms) * len(y.terms) > MAX_POWER_TERMS:
                self.error(f"a power may exceed {MAX_POWER_TERMS} terms")
            return mul(x, y)
        return product

    def signed_int(self, signs: str = "-") -> int:
        kind, value = self.take()
        sign = 1
        if kind == "op" and value in signs:
            sign = -1 if value == "-" else 1
            kind, value = self.take()
        if kind != "int":
            self.error("expected an integer")
        return sign * value

    def group_element(self, group):
        """Read '(e1, ..., er)' as an element of the group of rank r."""
        self.expect("(")
        exps = [self.signed_int("+-")]
        while self.peek() == ("op", ","):
            self.pos += 1
            exps.append(self.signed_int("+-"))
        self.expect(")")
        if len(exps) != group.rank:
            self.error(f"group element needs {group.rank} exponents, got {len(exps)}")
        return group.element(exps)

    def atom(self):
        kind, value = self.take()
        if kind == "int":
            if self.peek() == ("op", "/"):
                self.pos += 1
                dkind, denom = self.take()
                if dkind != "int" or denom == 0:
                    self.error("bad rational literal")
                return self.lift(Scalar.rational(self.ctx, Fraction(value, denom)))
            return self.lift(Scalar.rational(self.ctx, value))
        if kind == "name":
            if self.entry_atom is not None:
                found = self.entry_atom(self, value)
                if found is not None:
                    return found
            if value == "zeta":
                self.expect("(")
                dkind, d = self.take()
                if dkind != "int":
                    self.error("zeta needs an integer order")
                self.expect(")")
                if d < 1 or self.ctx.conductor % d != 0:
                    self.error(f"zeta({d}) does not exist at conductor {self.ctx.conductor}")
                return self.lift(Scalar.zeta(self.ctx, d))
            if value in self.ctx.params:
                return self.lift(Scalar.param(self.ctx, value))
            self.error(f"unknown identifier {value!r}")
        if kind == "op" and value == "(":
            self.nest()
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "op" and value == "-":
            self.nest()
            inner = -self.factor()
            self.depth -= 1
            return inner
        self.error("unexpected end of input" if kind is None else f"unexpected token {value!r}")


def parse_scalar(text: str, ctx: ScalarContext) -> Scalar:
    return _ExprParser(text, ctx).parse()
