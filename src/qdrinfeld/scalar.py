"""Coefficient scalars: Laurent polynomials in named parameters over Q(zeta_m).

A ``Scalar`` maps integer exponent vectors (one slot per declared parameter)
to nonzero cyclotomic coefficients.  Units are exactly the one-term scalars,
which is what the deformation data needs: every q entry and every character
value must be invertible, while coefficients of the bracket may be arbitrary.
The module also holds the one expression grammar of the package; spec rows
and element expressions extend it with their own atoms.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber, join_signed, power, times
from .errors import NotAUnit, ParseError, SpecError


# Powers in user input are refused past these bounds instead of computed:
# the exponent, and the term count any intermediate product may reach.
MAX_POWER = 1000
MAX_POWER_TERMS = 10000


@dataclass(frozen=True)
class ScalarContext:
    """Conductor and parameter names shared by all scalars of one spec."""

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

    @property
    def rank(self) -> int:
        return len(self.params)


class Scalar:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: ScalarContext, terms: dict) -> None:
        self.ctx = ctx
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: ScalarContext) -> Scalar:
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx: ScalarContext) -> Scalar:
        return cls.rational(ctx, 1)

    @classmethod
    def rational(cls, ctx: ScalarContext, value) -> Scalar:
        return cls.from_cyclotomic(ctx, CyclotomicNumber.from_rational(ctx.conductor, value))

    @classmethod
    def from_cyclotomic(cls, ctx: ScalarContext, value: CyclotomicNumber) -> Scalar:
        if value.m != ctx.conductor:
            raise SpecError(f"conductor mismatch: {value.m} vs {ctx.conductor}")
        return cls(ctx, {(0,) * ctx.rank: value})

    @classmethod
    def zeta(cls, ctx: ScalarContext, d: int, power: int = 1) -> Scalar:
        return cls.from_cyclotomic(ctx, CyclotomicNumber.root_of_unity(ctx.conductor, d, power))

    @classmethod
    def param(cls, ctx: ScalarContext, name: str, power: int = 1) -> Scalar:
        if name not in ctx.params:
            raise SpecError(f"unknown parameter {name!r}")
        exps = [0] * ctx.rank
        exps[ctx.params.index(name)] = power
        return cls(ctx, {tuple(exps): CyclotomicNumber.one(ctx.conductor)})

    # -- ring operations ------------------------------------------------------

    def _check(self, other: Scalar) -> None:
        if self.ctx != other.ctx:
            raise SpecError(f"scalar context mismatch: {self.ctx} vs {other.ctx}")

    def __add__(self, other: Scalar) -> Scalar:
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return Scalar(self.ctx, out)

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __neg__(self) -> Scalar:
        return Scalar(self.ctx, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Scalar) -> Scalar:
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                cur = out.get(e)
                out[e] = c if cur is None else cur + c
        return Scalar(self.ctx, out)

    def __pow__(self, k: int) -> Scalar:
        base = self.inv() if k < 0 else self
        return power(base, abs(k), Scalar.one(self.ctx))

    def inv(self) -> Scalar:
        """Invert a unit; only Laurent monomials qualify."""
        if len(self.terms) != 1:
            raise NotAUnit(f"{self} is not a unit (needs exactly one term)")
        (exps, coeff), = self.terms.items()
        return Scalar(self.ctx, {tuple(-e for e in exps): coeff.inverse()})

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

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
        base = scalar.inv() if k < 0 else scalar
        return self.lift(power(base, abs(k), Scalar.one(self.ctx), self.bounded(operator.mul)))

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
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "op" and value == "-":
            return -self.factor()
        self.error("unexpected end of input" if kind is None else f"unexpected token {value!r}")


def parse_scalar(text: str, ctx: ScalarContext) -> Scalar:
    return _ExprParser(text, ctx).parse()
