"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are stored on the power basis 1, zeta, ..., zeta^(phi(m)-1) with
rational coordinates, reduced modulo the m-th cyclotomic polynomial.  The
cyclotomic polynomial itself is obtained from x^m - 1 by exact division by
the polynomials of the proper divisors, so no factorization routine and no
floating point ever enter.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistency

_ZERO = Fraction(0)
_ONE = Fraction(1)


def power(base, k: int, one, mul=operator.mul):
    """base^k for k >= 0 by square-and-multiply."""
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


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


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficient tuple of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError(f"conductor must be >= 1, got {m}")
    # x^m - 1
    xm1 = [-_ONE] + [_ZERO] * (m - 1) + [_ONE]
    poly = _trim(xm1)
    for d in _divisors(m):
        if d == m:
            continue
        poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
        if rem:
            raise InternalInconsistency("x^m - 1 must factor exactly through Phi_d")
    return poly


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row k holds the power-basis coordinates of zeta_m^k, for 0 <= k < m.

    Any exponent reduces into this range because zeta_m^m = 1, which also
    covers the degrees up to 2*phi - 2 produced by multiplication.
    """
    phi = euler_phi(m)
    phim = cyclotomic_polynomial(m)
    # zeta^phi = -(c_0 + c_1 zeta + ... + c_{phi-1} zeta^{phi-1}), Phi monic
    zeta_phi = tuple(-c for c in phim[:-1])
    rows: list[tuple[Fraction, ...]] = []
    for k in range(m):
        if k < phi:
            row = [_ZERO] * phi
            row[k] = _ONE
        else:
            prev = rows[k - 1]
            top = prev[phi - 1]
            row = [top * zeta_phi[0]]
            for i in range(1, phi):
                row.append(prev[i - 1] + top * zeta_phi[i])
        rows.append(tuple(row))
    return tuple(rows)


class CyclotomicNumber:
    """An element of Q(zeta_m) on the power basis."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs) -> None:
        phi = euler_phi(m)
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {m}, got {len(coeffs)}")
        self.m = m
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, m: int, value) -> CyclotomicNumber:
        value = Fraction(value)
        phi = euler_phi(m)
        return cls(m, (value,) + (_ZERO,) * (phi - 1))

    @classmethod
    def zero(cls, m: int) -> CyclotomicNumber:
        return cls.from_rational(m, 0)

    @classmethod
    def one(cls, m: int) -> CyclotomicNumber:
        return cls.from_rational(m, 1)

    @classmethod
    def zeta_power(cls, m: int, k: int) -> CyclotomicNumber:
        """zeta_m^k, any integer k."""
        return cls(m, _power_rows(m)[k % m])

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

    def __add__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        return CyclotomicNumber(self.m, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        return CyclotomicNumber(self.m, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CyclotomicNumber:
        return CyclotomicNumber(self.m, (-a for a in self.coeffs))

    def __mul__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._check(other)
        phi = euler_phi(self.m)
        prod = [_ZERO] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        out = list(prod[:phi])
        table = _power_rows(self.m)
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c == 0:
                continue
            row = table[k % self.m]
            for i in range(phi):
                out[i] += c * row[i]
        return CyclotomicNumber(self.m, out)

    def scale(self, q) -> CyclotomicNumber:
        q = Fraction(q)
        return CyclotomicNumber(self.m, (q * a for a in self.coeffs))

    def inverse(self) -> CyclotomicNumber:
        """Field inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phim = cyclotomic_polynomial(self.m)
        # maintain r = s * self + t * Phi_m; Phi_m is irreducible over Q,
        # so the gcd is a nonzero constant
        r0, s0 = _trim(list(self.coeffs)), (_ONE,)
        r1, s1 = phim, ()
        while r1:
            q, r2 = _poly_divmod(r0, r1)
            s2 = _poly_sub(s0, _poly_mul(q, s1))
            r0, s0, r1, s1 = r1, s1, r2, s2
        if len(r0) != 1:
            raise InternalInconsistency("Phi_m must be coprime to any nonzero element")
        c = 1 / r0[0]
        phi = euler_phi(self.m)
        inv = [c * s0[i] if i < len(s0) else _ZERO for i in range(phi)]
        return CyclotomicNumber(self.m, inv)

    def __pow__(self, k: int) -> CyclotomicNumber:
        base = self.inverse() if k < 0 else self
        return power(base, abs(k), CyclotomicNumber.one(self.m))

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coeffs[1:])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclotomicNumber)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.m, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.m}, {self.coeffs!r})"

    def __str__(self) -> str:
        terms = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if k == 0:
                terms.append(str(a))
            else:
                base = f"zeta({self.m})" if k == 1 else f"zeta({self.m})^{k}"
                terms.append(times(str(a), base))
        return join_signed(terms)

    def term_count(self) -> int:
        return sum(1 for a in self.coeffs if a != 0)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)
