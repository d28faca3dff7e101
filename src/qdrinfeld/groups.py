"""Finite abelian groups, diagonal characters, and grading degrees.

The grading group for an n-generator algebra over a group with k cyclic
factors is Z^n x G.  Subgroup membership (needed for the quotient grading)
reduces to integer lattice membership in Z^(n+k) once each torsion relation
m_t * e_(n+t) is adjoined as an extra lattice generator.

Group letters are canonical.  ``AbelianGroup(orders)`` returns the one
live group on those orders, and the group fills a table of its elements
lazily, one per exponent vector.  Every way of making an element, the
constructor, ``element``, ``generator``, ``identity``, iteration,
products and inverses, returns the table's object.  So term keys that
carry group letters hash and compare them by identity, and a product
with the identity returns the other factor.  A weak registry keeps the
groups, so a group and its elements die with the last spec that holds
them.  Characters stay values, compared by their exponents.
"""

from __future__ import annotations

import itertools
import weakref
from math import lcm
from operator import add, mod, neg

from .cyclotomic import CyclotomicNumber
from .errors import SpecError
from .scalar import Scalar, ScalarContext


class AbelianGroup:
    """Direct product of cyclic groups Z/m_1 x ... x Z/m_k.

    There is one live group per tuple of orders, and each group keeps one
    element per exponent vector, built the first time it is asked for.
    So group letters compare and hash by identity.  The registry holds
    its groups weakly: a group and its elements live as long as something
    outside them, such as a spec, holds one of them.
    """

    __slots__ = ("orders", "_elements", "_identity", "__weakref__")

    def __new__(cls, orders) -> AbelianGroup:
        orders = tuple(int(m) for m in orders)
        group = _GROUPS.get(orders)
        if group is None:
            if any(m < 1 for m in orders):
                raise SpecError(f"cyclic orders must be >= 1, got {orders}")
            group = object.__new__(cls)
            group.orders = orders
            group._elements = {}
            group._identity = group._element((0,) * len(orders))
            _GROUPS[orders] = group
        return group

    def _element(self, exps: tuple) -> GroupElement:
        """The element on exponents already reduced modulo the orders."""
        element = self._elements.get(exps)
        if element is None:
            element = object.__new__(GroupElement)
            element.group, element.exps = self, exps
            self._elements[exps] = element
        return element

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def __len__(self) -> int:
        out = 1
        for m in self.orders:
            out *= m
        return out

    def identity(self) -> GroupElement:
        return self._identity

    def element(self, exps) -> GroupElement:
        return GroupElement(self, exps)

    def generator(self, t: int) -> GroupElement:
        exps = [0] * self.rank
        exps[t] = 1
        return GroupElement(self, exps)

    def __iter__(self):
        for exps in itertools.product(*(range(m) for m in self.orders)):
            yield self._element(exps)

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.orders)})"


# the live groups by their orders; a group leaves when it dies
_GROUPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _ExponentVector:
    """Exponents modulo the cyclic orders of a group.

    Group elements and characters are both such vectors; each type makes
    its products and inverses through its own _like.
    """

    __slots__ = ("group", "exps")
    _noun = "element"

    @classmethod
    def _reduced(cls, group: AbelianGroup, exps) -> tuple:
        """Outside exponents checked for length and reduced modulo the orders."""
        exps = tuple(int(e) for e in exps)
        if len(exps) != group.rank:
            raise SpecError(f"{cls._noun} needs {group.rank} exponents, got {len(exps)}")
        return tuple(e % m for e, m in zip(exps, group.orders))

    def __mul__(self, other):
        group = self.group
        if group is not other.group:
            raise SpecError("group mismatch")
        return self._like(tuple(map(mod, map(add, self.exps, other.exps), group.orders)))

    def inverse(self):
        return self._like(tuple(map(mod, map(neg, self.exps), self.group.orders)))

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)


class GroupElement(_ExponentVector):
    """A group letter: its group's one element on its exponent vector.

    Every way of making one returns that element, so equality and hashing
    are the identity defaults.
    """

    __slots__ = ()

    def __new__(cls, group: AbelianGroup, exps) -> GroupElement:
        return group._element(cls._reduced(group, exps))

    def _like(self, exps: tuple) -> GroupElement:
        return self.group._element(exps)

    def __mul__(self, other: GroupElement) -> GroupElement:
        # most products in the Hopf layer have an identity factor
        identity = self.group._identity
        if other is identity:
            return self
        if self is identity and other.group is self.group:
            return other
        return _ExponentVector.__mul__(self, other)

    def __str__(self) -> str:
        return "g(" + ",".join(str(e) for e in self.exps) + ")"

    __repr__ = __str__


class Character(_ExponentVector):
    """A linear character given by its exponents on the cyclic generators.

    The value on generator t is the primitive root zeta_(m_t) raised to
    exps[t], embedded into Q(zeta_m) of the ambient scalar context.
    Characters are compared by value, and never equal a group element.
    """

    __slots__ = ()
    _noun = "character"

    def __init__(self, group: AbelianGroup, exps) -> None:
        self.group = group
        self.exps = self._reduced(group, exps)

    def _like(self, exps: tuple) -> Character:
        x = object.__new__(Character)
        x.group, x.exps = self.group, exps
        return x

    def __eq__(self, other) -> bool:
        return (
            type(other) is Character
            and self.group is other.group
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"Character{self.exps}"


def char_exponent(chi: Character, g: GroupElement, m: int) -> int:
    """The k in range(m) with chi(g) = zeta_m^k."""
    if chi.group is not g.group:
        raise SpecError("group mismatch")
    total = 0
    for e, a, order in zip(chi.exps, g.exps, chi.group.orders):
        if m % order != 0:
            raise SpecError(f"conductor {m} is not divisible by cyclic order {order}")
        total = (total + (m // order) * e * a) % m
    return total


def char_eval(chi: Character, g: GroupElement, ctx: ScalarContext) -> Scalar:
    """Evaluate a character at a group element inside Q(zeta_m).

    The value is a root of unity on the context's shared terms, and 1 is
    the shared ``Scalar.one``, which products skip.
    """
    m = ctx.conductor
    return Scalar.from_cyclotomic(ctx, CyclotomicNumber.zeta_power(m, char_exponent(chi, g, m)))


class ADegree:
    """An element of the grading group Z^n x G."""

    __slots__ = ("free", "tors")

    def __init__(self, free, tors: GroupElement) -> None:
        self.free = tuple(int(a) for a in free)
        self.tors = tors

    @classmethod
    def generator_degree(cls, n: int, i: int, group: AbelianGroup) -> ADegree:
        """Degree of the i-th algebra generator (0-based)."""
        free = [0] * n
        free[i] = 1
        return cls(free, group.identity())

    @classmethod
    def group_degree(cls, n: int, g: GroupElement) -> ADegree:
        return cls((0,) * n, g)

    def __mul__(self, other: ADegree) -> ADegree:
        if len(self.free) != len(other.free):
            raise SpecError("degree rank mismatch")
        return ADegree(
            (a + b for a, b in zip(self.free, other.free)),
            self.tors * other.tors,
        )

    def inverse(self) -> ADegree:
        return ADegree((-a for a in self.free), self.tors.inverse())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ADegree)
            and self.free == other.free
            and self.tors == other.tors
        )

    def __hash__(self) -> int:
        return hash((self.free, self.tors))

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.free) + ";" + str(self.tors) + ")"

    __repr__ = __str__

    def as_int_vector(self) -> list[int]:
        return list(self.free) + list(self.tors.exps)


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class IntegerLattice:
    """Row-echelon basis of a sublattice of Z^width, supporting membership."""

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: list[list[int]] = []  # echelon, pivots strictly right-down

    def _pivot_col(self, row) -> int:
        for j, x in enumerate(row):
            if x:
                return j
        return self.width

    def add(self, vec) -> None:
        vec = list(vec)
        if len(vec) != self.width:
            raise SpecError("lattice vector width mismatch")
        for idx in range(len(self.rows) + 1):
            j = self._pivot_col(vec)
            if j == self.width:
                return
            if idx == len(self.rows) or self._pivot_col(self.rows[idx]) > j:
                if vec[j] < 0:
                    vec = [-x for x in vec]
                self.rows.insert(idx, vec)
                return
            row = self.rows[idx]
            pj = self._pivot_col(row)
            if pj < j:
                continue
            # same pivot column: replace the pair by (gcd combo, eliminated)
            a, b = row[j], vec[j]
            g, s, t = _xgcd(a, b)
            u, v = a // g, b // g
            combo = [s * x + t * y for x, y in zip(row, vec)]
            vec = [u * y - v * x for x, y in zip(row, vec)]
            self.rows[idx] = combo

    def contains(self, vec) -> bool:
        vec = list(vec)
        if len(vec) != self.width:
            raise SpecError("lattice vector width mismatch")
        for row in self.rows:
            j = self._pivot_col(row)
            if vec[j] == 0:
                continue
            if vec[j] % row[j] != 0:
                return False
            q = vec[j] // row[j]
            vec = [x - q * y for x, y in zip(vec, row)]
        return not any(vec)


class SubgroupN:
    """A subgroup of Z^n x G described by finitely many generators."""

    def __init__(self, n: int, group: AbelianGroup, generators) -> None:
        self.n = n
        self.group = group
        self.generators = tuple(generators)
        width = n + group.rank
        lattice = IntegerLattice(width)
        for deg in self.generators:
            if len(deg.free) != n or deg.tors.group is not group:
                raise SpecError("subgroup generator lives in the wrong grading group")
            lattice.add(deg.as_int_vector())
        for t, order in enumerate(group.orders):
            rel = [0] * width
            rel[n + t] = order
            lattice.add(rel)
        self._lattice = lattice

    def contains(self, deg: ADegree) -> bool:
        if len(deg.free) != self.n or deg.tors.group is not self.group:
            raise SpecError("degree lives in the wrong grading group")
        return self._lattice.contains(deg.as_int_vector())

    def congruent(self, a: ADegree, b: ADegree) -> bool:
        return self.contains(a * b.inverse())


__all__ = [
    "AbelianGroup",
    "GroupElement",
    "Character",
    "ADegree",
    "SubgroupN",
    "char_eval",
    "char_exponent",
]
