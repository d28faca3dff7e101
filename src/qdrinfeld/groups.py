"""Finite abelian groups, diagonal characters, and grading degrees.

The grading group for an n-generator algebra over a group with k cyclic
factors is Z^n x G.  Subgroup membership (needed for the quotient grading)
reduces to integer lattice membership in Z^(n+k) once each torsion relation
m_t * e_(n+t) is adjoined as an extra lattice generator.
"""

from __future__ import annotations

import itertools
from math import lcm

from .cyclotomic import CyclotomicNumber
from .errors import SpecError
from .scalar import Scalar, ScalarContext


class AbelianGroup:
    """Direct product of cyclic groups Z/m_1 x ... x Z/m_k."""

    __slots__ = ("orders", "_identity")

    def __init__(self, orders) -> None:
        orders = tuple(int(m) for m in orders)
        if any(m < 1 for m in orders):
            raise SpecError(f"cyclic orders must be >= 1, got {orders}")
        self.orders = orders
        self._identity = GroupElement(self, (0,) * len(orders))

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
        """The identity element, one shared object per group: no code
        mutates a group element after it is built."""
        return self._identity

    def element(self, exps) -> GroupElement:
        return GroupElement(self, exps)

    def generator(self, t: int) -> GroupElement:
        exps = [0] * self.rank
        exps[t] = 1
        return GroupElement(self, exps)

    def __iter__(self):
        for exps in itertools.product(*(range(m) for m in self.orders)):
            yield GroupElement(self, exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.orders)})"


class _ExponentVector:
    """Exponents modulo the cyclic orders of a group.

    Group elements and characters are both such vectors; equality needs
    the same subclass as well as the same group and exponents.
    """

    __slots__ = ("group", "exps")
    _noun = "element"

    def __init__(self, group: AbelianGroup, exps) -> None:
        exps = tuple(int(e) for e in exps)
        if len(exps) != group.rank:
            raise SpecError(f"{self._noun} needs {group.rank} exponents, got {len(exps)}")
        self.group = group
        self.exps = tuple(e % m for e, m in zip(exps, group.orders))

    def _like(self, exps: tuple):
        """A vector of this type and group on exponents already reduced.

        Products and inverses of valid vectors of one group need no
        conversion or length check, only the reduction modulo the orders.
        """
        x = object.__new__(type(self))
        x.group, x.exps = self.group, exps
        return x

    def __mul__(self, other):
        group = self.group
        if group is not other.group and group != other.group:
            raise SpecError("group mismatch")
        return self._like(tuple(
            (a + b) % m for a, b, m in zip(self.exps, other.exps, group.orders)
        ))

    def inverse(self):
        return self._like(tuple(-e % m for e, m in zip(self.exps, self.group.orders)))

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.group == other.group
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        # equal vectors have equal exponents; the group only refines equality
        return hash(self.exps)


class GroupElement(_ExponentVector):
    __slots__ = ()

    def __str__(self) -> str:
        return "g(" + ",".join(str(e) for e in self.exps) + ")"

    __repr__ = __str__


class Character(_ExponentVector):
    """A linear character given by its exponents on the cyclic generators.

    The value on generator t is the primitive root zeta_(m_t) raised to
    exps[t], embedded into Q(zeta_m) of the ambient scalar context.
    """

    __slots__ = ()
    _noun = "character"

    def __repr__(self) -> str:
        return f"Character{self.exps}"


def char_exponent(chi: Character, g: GroupElement, m: int) -> int:
    """The k in range(m) with chi(g) = zeta_m^k."""
    if chi.group != g.group:
        raise SpecError("group mismatch")
    total = 0
    for e, a, order in zip(chi.exps, g.exps, chi.group.orders):
        if m % order != 0:
            raise SpecError(f"conductor {m} is not divisible by cyclic order {order}")
        total = (total + (m // order) * e * a) % m
    return total


def char_eval(chi: Character, g: GroupElement, ctx: ScalarContext) -> Scalar:
    """Evaluate a character at a group element inside Q(zeta_m).

    The value 1 is the context's shared ``Scalar.one``, which products skip.
    """
    m = ctx.conductor
    k = char_exponent(chi, g, m)
    if k == 0:
        return Scalar.one(ctx)
    return Scalar.from_cyclotomic(ctx, CyclotomicNumber.zeta_power(m, k))


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
            if len(deg.free) != n or deg.tors.group != group:
                raise SpecError("subgroup generator lives in the wrong grading group")
            lattice.add(deg.as_int_vector())
        for t, order in enumerate(group.orders):
            rel = [0] * width
            rel[n + t] = order
            lattice.add(rel)
        self._lattice = lattice

    def contains(self, deg: ADegree) -> bool:
        if len(deg.free) != self.n or deg.tors.group != self.group:
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
