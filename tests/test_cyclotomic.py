import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from qdrinfeld import cyclotomic
from qdrinfeld.cyclotomic import (
    CyclotomicNumber,
    _euclid_inverse,
    cyclotomic_polynomial,
    euler_phi,
)
from qdrinfeld.specfile import MAX_CONDUCTOR, format_spec, parse_spec_text

from randspec import multi_letter_corpus


def test_cyclotomic_polynomial_small_cases():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_4 = x^2 + 1, Phi_6 = x^2 - x + 1
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


@lru_cache(maxsize=None)
def _divisor_cyclotomic(m: int):
    """Reference: x^m - 1 divided exactly by Phi_d for every proper divisor d."""
    poly = cyclotomic._trim([Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)])
    for d in range(1, m):
        if m % d == 0:
            poly, rem = cyclotomic._poly_divmod(poly, _divisor_cyclotomic(d))
            assert not rem, (m, d)
    return poly


def test_cyclotomic_polynomial_from_the_radical_matches_the_division_by_divisors():
    for m in range(1, 241):
        assert cyclotomic_polynomial(m) == _divisor_cyclotomic(m), m


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta_has_multiplicative_order_m():
    for m in (1, 2, 3, 4, 6, 8, 12):
        z = CyclotomicNumber.zeta_power(m, 1)
        acc = CyclotomicNumber.one(m)
        seen_one_early = False
        for _ in range(m - 1):
            acc = acc * z
            if acc == CyclotomicNumber.one(m):
                seen_one_early = True
        assert not seen_one_early or m == 1
        assert acc * z == CyclotomicNumber.one(m)


def test_primitive_sixth_root_inside_conductor_12():
    z = CyclotomicNumber.root_of_unity(12, 6)
    assert z ** 6 == CyclotomicNumber.one(12)
    assert z ** 3 == -CyclotomicNumber.one(12)


def test_root_of_unity_rejects_non_divisor():
    with pytest.raises(Exception):
        CyclotomicNumber.root_of_unity(4, 3)


def test_sum_of_all_mth_roots_is_zero():
    for m in (2, 3, 4, 5, 6):
        total = CyclotomicNumber.zero(m)
        for k in range(m):
            total = total + CyclotomicNumber.zeta_power(m, k)
        assert total.is_zero()


def test_inverse_of_random_elements():
    rng = random.Random(7)
    for m in (3, 4, 5, 12):
        for _ in range(25):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(m))]
            x = CyclotomicNumber(m, coeffs)
            if x.is_zero():
                continue
            assert x * x.inverse() == CyclotomicNumber.one(m)


def test_ring_laws_randomized():
    rng = random.Random(20260814)
    m = 12
    width = euler_phi(m)

    def rand():
        return CyclotomicNumber(m, [Fraction(rng.randint(-3, 3)) for _ in range(width)])

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_rational_round_trip():
    x = CyclotomicNumber.from_rational(8, Fraction(22, 7))
    assert x.coeffs == (Fraction(22, 7), 0, 0, 0)
    z = CyclotomicNumber.zeta_power(8, 2)
    assert z.coeffs == (0, 0, 1, 0)


def test_pow_negative_exponent():
    z = CyclotomicNumber.zeta_power(5, 1)
    assert z ** -1 == z ** 4
    assert (z + CyclotomicNumber.one(5)) ** 0 == CyclotomicNumber.one(5)


def test_str_is_reduced():
    # zeta(4)^2 must print as the rational -1, not as a power
    z = CyclotomicNumber.zeta_power(4, 1)
    assert str(z * z) == "-1"


# -- the stored form: integer numerators over one denominator, lowest terms


def _random_element(rng, m, width=None):
    """Mixed denominators on ``width`` random coordinates (all by default)."""
    phi = euler_phi(m)
    coeffs = [Fraction(0)] * phi
    for k in rng.sample(range(phi), phi if width is None else min(width, phi)):
        coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return CyclotomicNumber(m, coeffs)


def _same_value(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert repr(x) == repr(y)
    assert (x.m, x.nums, x.den) == (y.m, y.nums, y.den)


def test_one_value_has_one_representation():
    rng = random.Random(8)
    m = 12
    a, b, y = (_random_element(rng, m) for _ in range(3))
    assert not a.is_zero() and not b.is_zero()
    _same_value((a * b.inverse()) * (b * a.inverse()), CyclotomicNumber.one(m))
    _same_value(a + y - y, a)
    sixth = CyclotomicNumber(m, [Fraction(1, 6), Fraction(-5, 4), 0, Fraction(1, 10)])
    third = CyclotomicNumber(m, [Fraction(1, 3), Fraction(1, 4), 0, Fraction(2, 5)])
    half = CyclotomicNumber(m, [Fraction(1, 2), -1, 0, Fraction(1, 2)])
    _same_value(sixth + third, half)
    assert half.den == 2


def test_rational_coordinates_round_trip_in_lowest_terms():
    rng = random.Random(9)
    for m in (1, 2, 5, 12, 105):
        for _ in range(10):
            x = _random_element(rng, m, width=6)
            assert CyclotomicNumber(m, x.coeffs) == x
            assert x.den > 0
            assert gcd(x.den, *x.nums) == 1
            assert all(isinstance(a, int) for a in x.nums)


def test_zero_has_a_single_representation():
    rng = random.Random(10)
    m = 12
    x = _random_element(rng, m)
    zeros = [
        CyclotomicNumber.zero(m),
        CyclotomicNumber.from_rational(m, Fraction(0, 7)),
        CyclotomicNumber(m, [Fraction(0, 5)] * euler_phi(m)),
        x - x,
        x * CyclotomicNumber.zero(m),
        -CyclotomicNumber.zero(m),
    ]
    for z in zeros:
        assert z.is_zero()
        _same_value(z, zeros[0])
    assert zeros[0].nums == (0,) * euler_phi(m) and zeros[0].den == 1


def test_ring_laws_with_fractional_coordinates():
    rng = random.Random(11)
    for m in (3, 12, 15):
        one, zero = CyclotomicNumber.one(m), CyclotomicNumber.zero(m)
        for _ in range(20):
            a, b, c = (_random_element(rng, m) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert a - b == a + (-b)
            assert a + zero == a and a * one == a
            if not b.is_zero():
                assert (a * b) * b.inverse() == a


# -- cross-check against an independent implementation


def test_cyclotomic_polynomials_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, MAX_CONDUCTOR + 1):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(m) == tuple(Fraction(int(c)) for c in expected), m


def test_products_and_inverses_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(113)
    for m in (1, 2, 12, 105, 113, 120):
        phim = sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain="QQ")
        one = CyclotomicNumber.one(m).coeffs

        def poly(value):
            coeffs = [sympy.Rational(str(a)) for a in reversed(value.coeffs)]
            return sympy.Poly(coeffs, x, domain="QQ")

        def coords(p):
            found = [Fraction(str(a)) for a in reversed(p.rem(phim).all_coeffs())]
            return tuple(found + [Fraction(0)] * (euler_phi(m) - len(found)))

        for _ in range(3):
            # dense factors for the products; a dense inverse at m = 113 takes
            # about 2 s here and minutes in sympy, so the inverse gets a sparse one
            a = _random_element(rng, m, width=3)
            b, c = _random_element(rng, m), _random_element(rng, m)
            assert (b * c).coeffs == coords(poly(b) * poly(c)), m
            assert (a * b).coeffs == coords(poly(a) * poly(b)), m
            if a.is_zero():
                continue
            inverse = a.inverse()
            assert coords(poly(a) * poly(inverse)) == one, m
            # at m = 113 sympy.invert takes seconds even on a sparse element;
            # the product above already pins the inverse down there
            if m != 113:
                assert inverse.coeffs == coords(sympy.invert(poly(a), phim)), m


# -- roots of unity are inverted by table, other elements by Euclid


def test_inverse_of_a_signed_root_of_unity_matches_euclid():
    # every element, through the Euclidean algorithm, where that is quick
    for m in range(1, 31):
        for k in range(m):
            for z in (CyclotomicNumber.zeta_power(m, k), -CyclotomicNumber.zeta_power(m, k)):
                _same_value(z.inverse(), _euclid_inverse(z))
    # up to the conductor bound, against the Euclidean inverse of zeta_m to
    # the k-th power; one Euclid per element takes about a minute there on
    # 2 cores with Python 3.11
    for m in range(1, MAX_CONDUCTOR + 1):
        reference = _euclid_inverse(CyclotomicNumber.zeta_power(m, 1))
        expected = CyclotomicNumber.one(m)
        for k in range(m):
            z = CyclotomicNumber.zeta_power(m, k)
            _same_value(z.inverse(), expected)
            _same_value((-z).inverse(), -expected)
            expected = expected * reference


def test_integer_elements_off_the_table_and_zero():
    # den == 1 but not +-zeta^k: the table must not answer for these
    for m in (1, 2, 6, 12):
        one = CyclotomicNumber.one(m)
        for x in (one + one, one + CyclotomicNumber.zeta_power(m, 1)):
            if not x.is_zero():
                _same_value(x.inverse(), _euclid_inverse(x))
                assert x * x.inverse() == one
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(6).inverse()


def test_parsing_the_multi_letter_corpus_divides_no_polynomials(monkeypatch):
    texts = [format_spec(spec) for spec in multi_letter_corpus(288, 1)]
    for m in {parse_spec_text(text).ctx.conductor for text in texts}:
        cyclotomic_polynomial(m)
    calls = []
    divmod_ = cyclotomic._poly_divmod
    monkeypatch.setattr(
        cyclotomic, "_poly_divmod", lambda a, b: calls.append(1) or divmod_(a, b)
    )
    for text in texts:
        parse_spec_text(text)
    assert calls == []


# -- products, inverses and negations of +-zeta^k are table lookups; the
#    dense product and the Euclidean inverse stay their reference


def _built_signed_roots(m):
    """+-zeta_m^k for every k, built from coordinates apart from the table."""
    rows = cyclotomic._power_rows(m)
    return [CyclotomicNumber(m, [sign * a for a in row]) for row in rows for sign in (1, -1)]


def _check_table_against_the_dense_path(m, pairs, inverses):
    table = {id(x) for x in cyclotomic._units(m)}
    for x, y in pairs:
        product = x * y
        assert id(product) in table, (m, x, y)
        _same_value(product, cyclotomic._dense_mul(x, y))
    for x in inverses:
        negated = -x
        assert id(negated) in table and id(x.inverse()) in table, (m, x)
        _same_value(negated, CyclotomicNumber(m, [-c for c in x.coeffs]))
        _same_value(x.inverse(), _euclid_inverse(x))


def test_signed_roots_multiply_invert_and_negate_by_table():
    for m in range(1, 25):
        roots = _built_signed_roots(m)
        # odd m lists 2m distinct values, even m each one twice
        assert len(cyclotomic._units(m)) == len(set(roots)) == (m if m % 2 == 0 else 2 * m)
        _check_table_against_the_dense_path(m, itertools.product(roots, repeat=2), roots)
    rng = random.Random(39)
    for m in (113, 120):
        roots = _built_signed_roots(m)
        pairs = [(rng.choice(roots), rng.choice(roots)) for _ in range(300)]
        _check_table_against_the_dense_path(m, pairs, rng.sample(roots, 4))


def test_a_value_has_one_equality_and_hash_however_it_was_built():
    for m in (1, 2, 3, 4, 12, 15, 113, 120):
        units = cyclotomic._units(m)
        for x in _built_signed_roots(m):
            entry = units[cyclotomic.root_index(x)]
            assert entry is not x
            _same_value(entry, x)
            # arithmetic: through the dense product and through sums
            _same_value(entry, cyclotomic._dense_mul(x, CyclotomicNumber.one(m)))
            _same_value(entry, (x + x) - x)
            _same_value(entry * CyclotomicNumber.one(m), x)
            assert len({entry, x, (x + x) - x}) == 1
    # -zeta^k and zeta^(k + m/2) are one entry at even m
    for m in (2, 4, 12, 120):
        for k in range(m):
            assert -CyclotomicNumber.zeta_power(m, k) is CyclotomicNumber.zeta_power(m, k + m // 2)
    # values off the table keep the dense path and have no index
    one = CyclotomicNumber.one(12)
    for x in (one + one, one + CyclotomicNumber.zeta_power(12, 1), CyclotomicNumber.zero(12),
              CyclotomicNumber.from_rational(12, Fraction(1, 2))):
        assert cyclotomic.root_index(x) == -1
