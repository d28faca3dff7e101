import random
from fractions import Fraction

import pytest

from qdrinfeld.cyclotomic import (
    CyclotomicNumber,
    cyclotomic_polynomial,
    euler_phi,
)


def test_cyclotomic_polynomial_small_cases():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_4 = x^2 + 1, Phi_6 = x^2 - x + 1
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


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
    assert x.is_rational()
    z = CyclotomicNumber.zeta_power(8, 2)
    assert not z.is_rational()


def test_pow_negative_exponent():
    z = CyclotomicNumber.zeta_power(5, 1)
    assert z ** -1 == z ** 4
    assert (z + CyclotomicNumber.one(5)) ** 0 == CyclotomicNumber.one(5)


def test_str_is_reduced():
    # zeta(4)^2 must print as the rational -1, not as a power
    z = CyclotomicNumber.zeta_power(4, 1)
    assert str(z * z) == "-1"
