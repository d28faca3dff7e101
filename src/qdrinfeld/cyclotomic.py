"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(m)-1) as
integer numerators over one positive common denominator, in lowest terms,
reduced modulo the m-th cyclotomic polynomial.  That polynomial is monic
with integer coefficients, so sums and products stay on integers and only
the denominators multiply.  For squarefree m it is obtained from x^m - 1
by exact division by the polynomials of the proper divisors, and any other
m substitutes into the polynomial of its radical, so no factorization
routine and no floating point ever enter; that division and the field
inverse of an element other than +-zeta^k are the only places that
compute over Q.

The signed roots of unity +-zeta^k of one conductor are kept once, in a
table indexed like the exponents of a primitive root of unity of order
lcm(2, m) (see ``_units``).  Every number knows its table index or that it
has none, so a product, inverse or negation of table entries is a sum,
negative or shift of indices, and it returns an entry, not a new number.
All other values take the dense power-basis path.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InternalInconsistency

_ZERO = Fraction(0)
_ONE = Fraction(1)


def power(base, k: int, one, mul=operator.mul):
    """base^k for k >= 0 by square-and-multiply; one only for k = 0."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return one if result is None else result


def times(coeff: str, body: str) -> str:
    """coeff*body from rendered parts, with a coefficient of 1 or -1 left out."""
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    return f"{coeff}*{body}"


def join_signed(pieces) -> str:
    """Join rendered summands with ' + ', folding a leading '-' into ' - '."""
    out = pieces[0] if pieces else "0"
    for piece in pieces[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


# ---------------------------------------------------------------------------
# dense polynomials over Q, coefficient of x^k at index k


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over Q; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        k = len(rem) - len(b)
        if c != 0:
            quo[k] = c
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
        # the leading entry is now exactly zero
        rem.pop()
    return _trim(quo), _trim(rem)


def _radical(m: int) -> int:
    """The product of the distinct primes dividing m."""
    rad, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            rad *= p
            while m % p == 0:
                m //= p
        p += 1
    return rad * m


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficient tuple of the m-th cyclotomic polynomial.

    Phi_m(x) = Phi_r(x^(m/r)) for the radical r of m, so only squarefree
    indices are divided out of x^r - 1, and their divisors are squarefree.
    """
    if m < 1:
        raise ValueError(f"conductor must be >= 1, got {m}")
    r = _radical(m)
    if r != m:
        step, base = m // r, cyclotomic_polynomial(r)
        poly = [_ZERO] * (step * (len(base) - 1) + 1)
        for k, c in enumerate(base):
            poly[k * step] = c
        return tuple(poly)
    # x^r - 1
    poly = _trim([-_ONE] + [_ZERO] * (r - 1) + [_ONE])
    for d in range(1, r):
        if r % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise InternalInconsistency("x^r - 1 must factor exactly through Phi_d")
    return poly


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k holds the power-basis coordinates of zeta_m^k, for 0 <= k < m.

    Phi_m is monic with integer coefficients, so every row is an integer
    vector.  Any exponent reduces into this range because zeta_m^m = 1,
    which also covers the degrees up to 2*phi - 2 produced by
    multiplication.
    """
    phi = euler_phi(m)
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1}), Phi monic
    zeta_phi = [-int(c) for c in cyclotomic_polynomial(m)[:-1]]
    rows: list[tuple[int, ...]] = []
    for k in range(m):
        if k < phi:
            row = [0] * phi
            row[k] = 1
        else:
            prev = rows[k - 1]
            top = prev[phi - 1]
            row = [top * zeta_phi[0]]
            for i in range(1, phi):
                row.append(prev[i - 1] + top * zeta_phi[i])
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[CyclotomicNumber, ...]:
    """The distinct +-zeta_m^k, entry e being w^e for w = exp(2 pi i / N),
    N = lcm(2, m), so the product of entries a and b is entry a + b mod N.

    For even m, N = m and -1 = zeta^(m/2), so -zeta^k is the entry
    k + m/2 and nothing is listed twice.  For odd m, N = 2m, zeta^k is
    the entry 2k and -zeta^k the entry 2k + m.  Negation adds N/2.
    """
    rows = _power_rows(m)
    units = []
    for e in range(lcm(2, m)):
        if m % 2 == 0:
            row = rows[e]
        elif e % 2 == 0:
            row = rows[e // 2]
        else:
            row = tuple(-a for a in rows[(e - m) // 2 % m])
        x = object.__new__(CyclotomicNumber)
        x.m, x.nums, x.den, x.root = m, row, 1, e
        units.append(x)
    return tuple(units)


@lru_cache(maxsize=None)
def _power_index(m: int) -> dict[tuple[int, ...], int]:
    """The ``_units(m)`` index of each +-zeta_m^k, keyed by its numerators;
    the representation is unique, so the keys are distinct."""
    return {x.nums: x.root for x in _units(m)}


def root_index(x: CyclotomicNumber) -> int:
    """x's index in ``_units(x.m)``, or -1 when x is no +-zeta^k.

    Table entries carry it; any other number looks it up on first use.
    """
    k = x.root
    if k is None:
        k = x.root = _power_index(x.m).get(x.nums, -1) if x.den == 1 else -1
    return k


def _number(m: int, nums: tuple[int, ...], den: int) -> CyclotomicNumber:
    """The element nums/den of Q(zeta_m), brought to lowest terms; den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(a // g for a in nums)
            den //= g
    x = object.__new__(CyclotomicNumber)
    x.m, x.nums, x.den, x.root = m, nums, den, None
    return x


def _dense_mul(x: CyclotomicNumber, y: CyclotomicNumber) -> CyclotomicNumber:
    """x*y on the power basis, reduced through ``_power_rows``."""
    m, a, b = x.m, x.nums, y.nums
    phi = len(a)
    prod = [0] * (2 * phi - 1)
    for i, c in enumerate(a):
        if c:
            for k, d in enumerate(b, i):
                prod[k] += c * d
    out = prod[:phi]
    table = _power_rows(m)
    for k in range(phi, 2 * phi - 1):
        c = prod[k]
        if c:
            for i, r in enumerate(table[k % m]):
                out[i] += c * r
    return _number(m, tuple(out), x.den * y.den)


class CyclotomicNumber:
    """An element of Q(zeta_m) on the power basis: integer numerators ``nums``
    over one denominator ``den`` > 0, in lowest terms, so equal values match.

    ``root`` is the index in the table of +-zeta^k (``_units``), -1 off the
    table, or None until ``root_index`` looks it up; it takes no part in
    equality or hashing.  No number is mutated, so table entries are shared.
    """

    __slots__ = ("m", "nums", "den", "root")

    def __init__(self, m: int, coeffs) -> None:
        """From rational coordinates on the power basis."""
        coeffs = [Fraction(c) for c in coeffs]
        phi = euler_phi(m)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {m}, got {len(coeffs)}")
        # over the lcm of the reduced denominators the numerators share no
        # factor with it, so this is already lowest terms
        den = lcm(*(c.denominator for c in coeffs))
        self.m = m
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den
        self.root = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coordinates on the power basis."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, m: int, value) -> CyclotomicNumber:
        value = Fraction(value)
        return _number(m, (value.numerator,) + (0,) * (euler_phi(m) - 1), value.denominator)

    @classmethod
    def zero(cls, m: int) -> CyclotomicNumber:
        return cls.from_rational(m, 0)

    @classmethod
    def one(cls, m: int) -> CyclotomicNumber:
        return _units(m)[0]

    @classmethod
    def zeta_power(cls, m: int, k: int) -> CyclotomicNumber:
        """zeta_m^k, any integer k, as the table entry."""
        units = _units(m)
        return units[k * (len(units) // m) % len(units)]

    @classmethod
    def root_of_unity(cls, m: int, d: int, power: int = 1) -> CyclotomicNumber:
        """zeta_d^power embedded in Q(zeta_m); requires d | m."""
        if m % d != 0:
            raise ValueError(f"zeta({d}) does not live in Q(zeta_{m})")
        return cls.zeta_power(m, (m // d) * power)

    # -- ring structure ------------------------------------------------------

    def _check(self, other: CyclotomicNumber) -> None:
        if self.m != other.m:
            raise ValueError(f"conductor mismatch: {self.m} vs {other.m}")

    def _combine(self, other: CyclotomicNumber, op) -> CyclotomicNumber:
        """op (add or sub) coordinatewise over the common denominator."""
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _number(self.m, tuple(map(op, self.nums, other.nums)), d1)
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        nums = tuple(op(a * f1, b * f2) for a, b in zip(self.nums, other.nums))
        return _number(self.m, nums, d1 * f1)

    def __add__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        return self._combine(other, operator.add)

    def __sub__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        return self._combine(other, operator.sub)

    def __neg__(self) -> CyclotomicNumber:
        k = root_index(self)
        if k >= 0:
            units = _units(self.m)
            return units[(k + len(units) // 2) % len(units)]
        return _number(self.m, tuple(-a for a in self.nums), self.den)

    def __mul__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        # the root indices are read inline: this is the hottest call of a
        # PBW decision, and most of its operands are +-zeta^k
        a = self.root
        if a is None:
            a = root_index(self)
        if a >= 0:
            b = other.root
            if b is None:
                b = root_index(other)
            if b >= 0:
                units = _units(self.m)
                return units[(a + b) % len(units)]
        return _dense_mul(self, other)

    def inverse(self) -> CyclotomicNumber:
        """Field inverse: by table for +-zeta^k, else by _euclid_inverse.

        The inverse of the table entry w^e is w^(-e), another entry, so
        it is an index lookup like the products and negations of entries.
        """
        k = root_index(self)
        if k >= 0:
            units = _units(self.m)
            return units[-k % len(units)]
        return _euclid_inverse(self)

    def __pow__(self, k: int) -> CyclotomicNumber:
        base = self.inverse() if k < 0 else self
        return power(base, abs(k), CyclotomicNumber.one(self.m))

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicNumber):
            return False
        return (self.m, self.den, self.nums) == (other.m, other.den, other.nums)

    def __hash__(self) -> int:
        return hash((self.m, self.nums, self.den))

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.m}, {self.coeffs!r})"

    def __str__(self) -> str:
        terms = []
        for k, a in enumerate(self.nums):
            if not a:
                continue
            coeff = str(a) if self.den == 1 else str(Fraction(a, self.den))
            if k == 0:
                terms.append(coeff)
            else:
                base = f"zeta({self.m})" if k == 1 else f"zeta({self.m})^{k}"
                terms.append(times(coeff, base))
        return join_signed(terms)

    def term_count(self) -> int:
        return sum(1 for a in self.nums if a)


def _euclid_inverse(x: CyclotomicNumber) -> CyclotomicNumber:
    """Field inverse of a nonzero x via the extended Euclidean algorithm in Q[x]."""
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    phim = cyclotomic_polynomial(x.m)
    # maintain r = s * x + t * Phi_m; Phi_m is irreducible over Q,
    # so the last nonzero remainder is a constant.  Each remainder is
    # made monic, which keeps the coefficients near the size of the
    # answer's: unscaled, they grow by thousands of digits at m = 113.
    r0, s0 = _trim(list(x.coeffs)), (_ONE,)
    r1, s1 = phim, ()
    while r1:
        q, r2 = _poly_divmod(r0, r1)
        s2 = _poly_sub(s0, _poly_mul(q, s1))
        if r2:
            c = 1 / r2[-1]
            r2, s2 = tuple(c * a for a in r2), tuple(c * a for a in s2)
        r0, s0, r1, s1 = r1, s1, r2, s2
    if len(r0) != 1:
        raise InternalInconsistency("Phi_m must be coprime to any nonzero element")
    # r0 == (1,), so s0 * x = 1 modulo Phi_m
    return CyclotomicNumber(x.m, s0 + (_ZERO,) * (euler_phi(x.m) - len(s0)))


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)
